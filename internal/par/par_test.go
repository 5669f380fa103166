package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// idleHelpers returns the helper count once it has settled: a helper looks
// for another open fan-out after its last Done, so it can outlive the Each
// that started it by a moment.
func idleHelpers() int32 {
	deadline := time.Now().Add(2 * time.Second)
	for helpers.Load() != 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return helpers.Load()
}

// TestEachCoverage: every item runs exactly once at every width, including
// the widths that run inline.
func TestEachCoverage(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1001} {
			visits := make([]int32, n)
			atProcs(procs, func() {
				Each(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: item %d ran %d times", procs, n, i, v)
				}
			}
		}
	}
}

// TestWorkersCoverage: work runs once per worker — at most GOMAXPROCS of
// them, exactly one inline — and between them they claim every item once.
func TestWorkersCoverage(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 5, 300} {
			visits := make([]int32, n)
			var workers atomic.Int32
			atProcs(procs, func() {
				Workers(n, func(next func() (int, bool)) {
					workers.Add(1)
					for i, ok := next(); ok; i, ok = next() {
						atomic.AddInt32(&visits[i], 1)
						time.Sleep(time.Microsecond)
					}
				})
			})
			if w := int(workers.Load()); w < 1 || w > procs || (n < 2 && w != 1) {
				t.Fatalf("GOMAXPROCS=%d n=%d: work ran on %d workers", procs, n, w)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: item %d claimed %d times", procs, n, i, v)
				}
			}
		}
	}
}

// TestChunksCoverage: the chunks are NumChunks(n, grain) contiguous ranges
// that tile [0, n) in order of their index, each of at least grain items
// when there are that many, and they do not depend on the width.
func TestChunksCoverage(t *testing.T) {
	type chunk struct{ lo, hi int }
	for _, n := range []int{0, 1, 2, 7, 64, 1001, 100000} {
		for _, grain := range []int{0, 1, 3, 64, 4096} {
			var want []chunk
			for _, procs := range []int{1, 2, 8} {
				got := make([]chunk, NumChunks(n, grain))
				var calls atomic.Int32
				atProcs(procs, func() {
					Chunks(n, grain, func(c, lo, hi int) {
						got[c] = chunk{lo, hi}
						calls.Add(1)
					})
				})
				if int(calls.Load()) != len(got) {
					t.Fatalf("n=%d grain=%d: %d calls for %d chunks", n, grain, calls.Load(), len(got))
				}
				at := 0
				for c, ch := range got {
					if ch.lo != at || ch.hi < ch.lo || (n >= grain && ch.hi-ch.lo < grain) {
						t.Fatalf("n=%d grain=%d: chunk %d is [%d, %d) after %d", n, grain, c, ch.lo, ch.hi, at)
					}
					at = ch.hi
				}
				if at != n {
					t.Fatalf("n=%d grain=%d: chunks end at %d", n, grain, at)
				}
				if want == nil {
					want = got
				}
				for c := range got {
					if got[c] != want[c] {
						t.Fatalf("n=%d grain=%d: chunk %d is %v at GOMAXPROCS=%d, %v at 1", n, grain, c, got[c], procs, want[c])
					}
				}
			}
		}
	}
}

// TestOffsets: the running totals place every chunk's results where one
// pass would have appended them, at every width.
func TestOffsets(t *testing.T) {
	const n, grain = 1000, 64
	even := func(lo, hi int) (c int) {
		for i := lo; i < hi; i++ {
			if i%2 == 0 {
				c++
			}
		}
		return c
	}
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			offs := Offsets(n, grain, even)
			if len(offs) != NumChunks(n, grain)+1 || offs[0] != 0 || offs[len(offs)-1] != n/2 {
				t.Fatalf("GOMAXPROCS=%d: offsets %v", procs, offs)
			}
			got := make([]int, n/2)
			Chunks(n, grain, func(c, lo, hi int) {
				j := offs[c]
				for i := lo; i < hi; i++ {
					if i%2 == 0 {
						got[j] = i
						j++
					}
				}
			})
			for j, v := range got {
				if v != 2*j {
					t.Fatalf("GOMAXPROCS=%d: position %d holds %d", procs, j, v)
				}
			}
		})
	}
}

// TestInlineAtOneWorker: with one processor, or one item, nothing is
// started: every item runs on the calling goroutine, in order.
func TestInlineAtOneWorker(t *testing.T) {
	check := func(name string, n int) {
		before := runtime.NumGoroutine()
		next := 0
		run := func(i int) {
			if i != next {
				t.Errorf("%s: item %d ran when %d was due", name, i, next)
			}
			next++
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("%s: %d goroutines during item %d, %d before", name, g, i, before)
			}
		}
		Each(n, run)
		next = 0
		Chunks(n, 1, func(c, _, _ int) { run(c) })
		next = 0
		fs := make([]func(), n)
		for i := range fs {
			fs[i] = func() { run(i) }
		}
		Do(fs...)
	}
	atProcs(1, func() { check("GOMAXPROCS=1", 50) })
	atProcs(8, func() { check("one item", 1) })
}

// TestHelpersBounded: nested fan-outs and concurrent callers share one
// allowance of GOMAXPROCS-1 helpers, so however items nest, the goroutines
// par has started never outnumber it by more than the callers blocked
// waiting on theirs.
func TestHelpersBounded(t *testing.T) {
	const procs = 4
	atProcs(procs, func() {
		before := runtime.NumGoroutine()
		var peak atomic.Int32
		note := func() {
			g := int32(runtime.NumGoroutine() - before)
			for {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					return
				}
			}
		}
		var leaves atomic.Int32
		Each(20, func(int) {
			Each(20, func(int) {
				Each(5, func(int) {
					note()
					leaves.Add(1)
					time.Sleep(10 * time.Microsecond)
				})
			})
		})
		if leaves.Load() != 20*20*5 {
			t.Fatalf("%d leaves ran", leaves.Load())
		}
		// procs-1 runnable helpers, and at most one blocked caller per level
		// of nesting under each of them.
		if p := peak.Load(); p > 3*procs {
			t.Errorf("%d goroutines above the baseline at GOMAXPROCS=%d", p, procs)
		}
		if h := idleHelpers(); h != 0 {
			t.Errorf("%d helpers still counted after every fan-out returned", h)
		}
	})
}

// TestHelpersJoin: a helper that finishes a short fan-out moves to a long
// one whose caller is busy inside an item and cannot recruit. The outer
// items are a long leg of four items and a short leg. The short leg holds
// the one helper GOMAXPROCS=2 allows until the long leg's caller is inside
// its first item — too late for that caller to recruit — and that item
// ends only once another item of its leg has started, which nobody but the
// short leg's helper is then free to do.
func TestHelpersJoin(t *testing.T) {
	atProcs(2, func() {
		inFirst, second := make(chan struct{}), make(chan struct{})
		var once sync.Once
		timedOut := false
		Do(func() {
			Each(4, func(i int) {
				if i > 0 {
					once.Do(func() { close(second) })
					return
				}
				close(inFirst)
				select {
				case <-second:
				case <-time.After(5 * time.Second):
					timedOut = true
				}
			})
		}, func() { <-inFirst })
		if timedOut {
			t.Error("no helper joined the long fan-out while its caller was inside an item")
		}
	})
}

// TestCallerJoins: the mirror of TestHelpersJoin. The caller has the short
// leg, which ends once the one helper GOMAXPROCS=2 allows is inside the
// first item of the long leg's nested fan-out — where it cannot recruit,
// and the allowance was its own anyway. That item ends only once another
// item of its fan-out has started, which nobody but the caller, out of
// items and waiting for that very helper, is free to do.
func TestCallerJoins(t *testing.T) {
	atProcs(2, func() {
		inFirst, second := make(chan struct{}), make(chan struct{})
		var once sync.Once
		timedOut := false
		idleHelpers() // the helper must be free for the long leg
		Do(func() {
			select {
			case <-inFirst:
			case <-time.After(5 * time.Second):
			}
		}, func() {
			Each(4, func(i int) {
				if i > 0 {
					once.Do(func() { close(second) })
					return
				}
				close(inFirst)
				select {
				case <-second:
				case <-time.After(5 * time.Second):
					timedOut = true
				}
			})
		})
		if timedOut {
			t.Error("the caller did not join the long fan-out while waiting for its helper inside it")
		}
		if h := idleHelpers(); h != 0 {
			t.Errorf("%d helpers still counted after the fan-out returned", h)
		}
	})
}

// TestUsesHelpers: with processors to spare, items do run side by side.
func TestUsesHelpers(t *testing.T) {
	atProcs(4, func() {
		var running, peak atomic.Int32
		var once sync.Once
		gate := make(chan struct{})
		Each(4, func(int) {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			if running.Load() >= 2 {
				once.Do(func() { close(gate) })
			}
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
			}
			running.Add(-1)
		})
		if peak.Load() < 2 {
			t.Errorf("at most %d items ran at once at GOMAXPROCS=4", peak.Load())
		}
	})
}

// TestPanicPropagates: a panic in an item, on the caller or on a helper, is
// raised on the caller after every worker has stopped, the items not yet
// handed out are dropped, and the allowance is given back.
func TestPanicPropagates(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, bad := range []int{0, 5, 99} {
			atProcs(procs, func() {
				var live atomic.Int32
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Errorf("GOMAXPROCS=%d item %d: recovered %v, want boom", procs, bad, r)
						}
						if l := live.Load(); l != 0 {
							t.Errorf("GOMAXPROCS=%d item %d: %d items still running when the panic reached the caller", procs, bad, l)
						}
					}()
					Each(100, func(i int) {
						live.Add(1)
						defer live.Add(-1)
						if i == bad {
							panic("boom")
						}
						time.Sleep(20 * time.Microsecond)
					})
					t.Errorf("GOMAXPROCS=%d item %d: Each returned", procs, bad)
				}()
				if h := idleHelpers(); h != 0 {
					t.Errorf("GOMAXPROCS=%d item %d: %d helpers still counted", procs, bad, h)
				}
			})
		}
	}
}
