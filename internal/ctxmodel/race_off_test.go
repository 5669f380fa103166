//go:build !race

package ctxmodel

const raceDetector = false
