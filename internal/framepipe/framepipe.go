// Package framepipe runs per-frame jobs side by side and hands their results
// back strictly in submission order. The frames of a DBGC stream are coded
// one by one, so the compression or decompression of neighbouring frames can
// overlap; the container is still sequential, so results must come back in
// order.
//
// How wide is not the caller's to say: like internal/par, a Window reads it
// from GOMAXPROCS. A frame that depends on the one before it is the caller's
// business too — it calls Drain before submitting that frame.
package framepipe

import "runtime"

type result[Out any] struct {
	out Out
	err error
}

// Window applies one function to submitted inputs, at most GOMAXPROCS of
// them at a time, and passes each result to deliver in submission order.
// A Window belongs to one goroutine: Submit and Drain are called from it,
// and deliver runs on it, so deliver needs no lock but must not call back
// into the Window. A drained Window holds no goroutine and needs no closing.
type Window[In, Out any] struct {
	fn      func(In) (Out, error)
	deliver func(Out, error)
	run     chan struct{}      // one token per job inside fn
	pending []chan result[Out] // submitted and not yet delivered, oldest first
}

// New returns a Window over fn that hands results to deliver. Twice as many
// jobs as run may be in flight, so a processor that finishes its job has the
// next one waiting while the caller is busy fetching more.
func New[In, Out any](fn func(In) (Out, error), deliver func(Out, error)) *Window[In, Out] {
	return &Window[In, Out]{
		fn:      fn,
		deliver: deliver,
		run:     make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// Submit delivers the results that are ready, then starts fn(in). It blocks,
// on the oldest job in flight, only while the window is full.
func (w *Window[In, Out]) Submit(in In) {
	w.handOver(len(w.pending) == 2*cap(w.run))
	slot := make(chan result[Out], 1)
	w.pending = append(w.pending, slot)
	go func() {
		w.run <- struct{}{}
		var r result[Out]
		r.out, r.err = w.fn(in)
		<-w.run
		slot <- r
	}()
}

// Drain delivers every result still in flight, waiting for each.
func (w *Window[In, Out]) Drain() {
	for len(w.pending) > 0 {
		w.handOver(true)
	}
}

// handOver delivers, oldest first, the results that have arrived; with wait
// set it waits for the oldest.
func (w *Window[In, Out]) handOver(wait bool) {
	for len(w.pending) > 0 {
		var r result[Out]
		if wait {
			r = <-w.pending[0]
			wait = false
		} else {
			select {
			case r = <-w.pending[0]:
			default:
				return
			}
		}
		w.pending = w.pending[1:]
		w.deliver(r.out, r.err)
	}
}
