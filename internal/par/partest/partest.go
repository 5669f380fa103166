// Package partest lets tests run the codec at a chosen width. Output must
// not depend on GOMAXPROCS; tests say so by running the same input at
// several settings and comparing.
package partest

import "runtime"

// Widths are the GOMAXPROCS settings width-invariance tests run at: inline,
// the benchmark host's two, an odd count, and more than most chunk counts.
var Widths = []int{1, 2, 3, 8}

// At runs f with GOMAXPROCS set to procs and restores the previous setting.
// The setting is process wide, so tests that call At do not run in parallel
// with each other.
func At(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}
