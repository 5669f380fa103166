//go:build race

package dbgc_test

// raceDetector reports that the race detector is on. Under it sync.Pool
// drops a quarter of what is put back, at random, so a frame that takes a
// pooled scratch per worker reallocates some of them every run.
const raceDetector = true
