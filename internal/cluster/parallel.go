package cluster

import "dbgc/internal/par"

// parallelChunks invokes f(w, lo, hi) over [0, n) split into contiguous
// chunks, one goroutine each, and waits for completion.
func parallelChunks(n int, f func(w, lo, hi int)) { par.Chunks(n, f) }
