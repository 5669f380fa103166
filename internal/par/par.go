// Package par is the codec's one fork-join helper, and the only place that
// decides how wide a stage runs. A fan-out hands independent items to the
// calling goroutine plus at most GOMAXPROCS-1 helper goroutines, process
// wide: nested fan-outs (sections → radial groups → entropy shards) and
// concurrent callers share that one allowance instead of multiplying it,
// so no input and no nesting depth starts more than GOMAXPROCS-1 runnable
// goroutines. With GOMAXPROCS 1, or one item, everything runs inline on
// the caller and no goroutine is started.
//
// Nobody idles while items are unclaimed anywhere: a helper out of items
// joins another open fan-out, and so does a caller left waiting for its
// helpers, which means an item can run on the stack of another item whose
// fan-out is waiting. Items therefore hold no lock across a fan-out.
//
// Nothing here makes output depend on width: an item writes only what it
// owns (its slot of a result slice, its range of an array), and what
// crosses items — counts, offsets, the first error — is combined by the
// caller afterwards, in index order.
package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// helpers counts the runnable goroutines fan-outs have started, process
// wide. A goroutine blocked waiting for its own helpers is not runnable
// and takes itself out of the count for as long as it waits.
var helpers atomic.Int32

// acquire claims one helper of the allowance for procs processors.
func acquire(procs int32) bool {
	for {
		h := helpers.Load()
		if h >= procs-1 {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// open lists the fan-outs whose callers are still handing out items, oldest
// first. A worker that runs out of items in one fan-out joins another from
// here — a helper before it gives its place back, a caller before it blocks
// waiting for its helpers — so a processor freed by a short leg (the octree
// beside the sparse groups, the dense section beside them on decode) goes
// to the long one without waiting for that leg's next claim.
var open struct {
	sync.Mutex
	list []*fanOut
}

// Each calls f(i) for every i in [0, n) and returns when all calls have.
// Items are handed out one at a time, in index order, to whichever worker
// is free, so items of unequal cost even out; workers are the caller plus
// helpers started, or joining from a fan-out they have finished, only while
// both unclaimed items and allowance remain. A caller left waiting for its
// helpers works on the other open fan-outs meanwhile. A panic in f stops
// the hand-out and is raised again on the caller once every worker has
// returned.
func Each(n int, f func(i int)) {
	if n < 2 || runtime.GOMAXPROCS(0) < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	Workers(n, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			f(i)
		}
	})
}

// Workers is Each for items that want something held across them — a
// pooled scratch taken once per worker, not once per item. work runs once
// on each worker, the caller first, and claims items by calling next until
// it reports false.
func Workers(n int, work func(next func() (int, bool))) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 || n < 2 {
		i := 0
		work(func() (int, bool) {
			if i >= n {
				return 0, false
			}
			i++
			return i - 1, true
		})
		return
	}
	e := &fanOut{n: int64(n), work: work, procs: int32(procs)}
	open.Lock()
	open.list = append(open.list, e)
	open.Unlock()
	e.run(nil)
	// Once e is off the list nobody can join it, so every Add to its
	// WaitGroup from a joining worker happens before the Wait below.
	open.Lock()
	open.list = slices.DeleteFunc(open.list, func(o *fanOut) bool { return o == e })
	open.Unlock()
	// The caller's items have run out; its helpers may each be inside one
	// more, and if that one holds a fan-out of its own — the sparse section
	// with its radial groups — nobody there can recruit before the item
	// ends. So the caller joins the open fan-outs as a finished helper
	// does, until its own helpers have returned: a foreign item delays its
	// return by no more than the one it is inside.
	for e.active.Load() > 0 {
		if at := join(); at != nil {
			at.run(e)
			at.done()
			continue
		}
		// Nothing to do but wait: lend the processor to whoever claims next.
		helpers.Add(-1)
		e.wg.Wait()
		helpers.Add(1)
	}
	if p := e.panicked.Load(); p != nil {
		panic(*p)
	}
}

// fanOut is the shared state of one Workers call.
type fanOut struct {
	n        int64
	work     func(next func() (int, bool))
	procs    int32
	next     atomic.Int64   // next unclaimed item
	active   atomic.Int32   // workers besides the caller that have not returned
	wg       sync.WaitGroup // counts the same workers, for the caller to block on
	panicked atomic.Pointer[any]
}

// run is one worker's share: work, claiming items until none are left —
// or, for the caller of waiting filling its wait on e, until waiting's
// helpers have all returned.
func (e *fanOut) run(waiting *fanOut) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked.CompareAndSwap(nil, &r)
			e.next.Store(e.n)
		}
	}()
	e.work(func() (int, bool) {
		if waiting != nil && waiting.active.Load() == 0 {
			return 0, false
		}
		return e.claim()
	})
}

// enter counts a worker besides the caller in, and done out again.
func (e *fanOut) enter() {
	e.active.Add(1)
	e.wg.Add(1)
}

func (e *fanOut) done() {
	e.active.Add(-1)
	e.wg.Done()
}

// claim hands out the next item, and starts a helper if there are more.
func (e *fanOut) claim() (int, bool) {
	i := e.next.Add(1) - 1
	if i >= e.n {
		return 0, false
	}
	if i+1 < e.n {
		e.recruit()
	}
	return int(i), true
}

// recruit starts one helper if the process allowance has room for it. The
// helper works on e, then on whatever open fan-out has items left, and
// gives its place back when none has.
func (e *fanOut) recruit() {
	if !acquire(e.procs) {
		return
	}
	// The counter cannot be zero here unless this is the caller before its
	// Wait: a helper adding is itself still counted.
	e.enter()
	go func() {
		defer helpers.Add(-1)
		for at := e; at != nil; at = join() {
			at.run(nil)
			at.done()
		}
	}()
}

// join picks the oldest open fan-out with unclaimed items — the outermost,
// whose items are the largest — and counts the calling worker in.
func join() *fanOut {
	open.Lock()
	defer open.Unlock()
	for _, e := range open.list {
		if e.next.Load() < e.n {
			e.enter()
			return e
		}
	}
	return nil
}

// NumChunks returns the number of ranges Chunks cuts n items into: one per
// grain items, at least one. It depends on nothing but n and grain, so
// per-chunk results combine the same way at every width.
func NumChunks(n, grain int) int {
	return max(1, n/max(grain, 1))
}

// Chunks cuts [0, n) into NumChunks(n, grain) near-equal contiguous ranges,
// each of at least grain items when n is, and calls f(c, lo, hi) for range
// c of them, through Each. Under 2·grain items that is the single call
// f(0, 0, n).
func Chunks(n, grain int, f func(c, lo, hi int)) {
	k := NumChunks(n, grain)
	if k == 1 {
		f(0, 0, n)
		return
	}
	Each(k, func(c int) { f(c, n*c/k, n*(c+1)/k) })
}

// Offsets runs count(lo, hi) over the chunks of Chunks(n, grain) and returns
// the running totals: offs[c] is the sum over the chunks before c, and the
// last element the sum over all. A second Chunks call with the same n and
// grain then writes chunk c's results at offs[c], in the order one pass
// over [0, n) would have appended them.
func Offsets(n, grain int, count func(lo, hi int) int) (offs []int) {
	offs = make([]int, NumChunks(n, grain)+1)
	Chunks(n, grain, func(c, lo, hi int) { offs[c+1] = count(lo, hi) })
	for c := 1; c < len(offs); c++ {
		offs[c] += offs[c-1]
	}
	return offs
}

// Do runs the given functions as the items of one Each.
func Do(fs ...func()) {
	Each(len(fs), func(i int) { fs[i]() })
}
