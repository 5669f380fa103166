//go:build race

package ctxmodel

// raceDetector reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is put back, at random.
const raceDetector = true
