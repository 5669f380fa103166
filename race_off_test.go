//go:build !race

package dbgc_test

const raceDetector = false
