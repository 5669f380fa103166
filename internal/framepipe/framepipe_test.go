package framepipe

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collect returns a deliver callback that appends to got, failing the test on
// any error.
func collect[T any](t *testing.T, got *[]T) func(T, error) {
	return func(v T, err error) {
		if err != nil {
			t.Error(err)
		}
		*got = append(*got, v)
	}
}

// TestOrdering: results come back in submission order even when jobs finish
// out of order.
func TestOrdering(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 16
	var got []int
	// Earlier jobs sleep longer, so completion order is reversed.
	w := New(func(i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i * i, nil
	}, collect(t, &got))
	for i := 0; i < n; i++ {
		w.Submit(i)
	}
	w.Drain()
	if len(got) != n {
		t.Fatalf("delivered %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestErrorStaysInOrder: a failing job surfaces at its position, not
// earlier or later.
func TestErrorStaysInOrder(t *testing.T) {
	boom := errors.New("boom")
	var errs []error
	w := New(func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}, func(v int, err error) {
		if err == nil && v != len(errs) {
			t.Errorf("position %d delivered %d", len(errs), v)
		}
		errs = append(errs, err)
	})
	for i := 0; i < 4; i++ {
		w.Submit(i)
	}
	w.Drain()
	if len(errs) != 4 {
		t.Fatalf("delivered %d results, want 4", len(errs))
	}
	for i, err := range errs {
		if (i == 2) != errors.Is(err, boom) {
			t.Fatalf("position %d: err %v", i, err)
		}
	}
}

// TestWindowBound: no more than GOMAXPROCS jobs run at once and no more
// than twice that are in flight, because Submit hands the oldest results
// over without being asked to drain.
func TestWindowBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var running, peak atomic.Int64
	submitted, delivered, widest := 0, 0, 0
	w := New(func(i int) (int, error) {
		now := running.Add(1)
		for {
			pk := peak.Load()
			if now <= pk || peak.CompareAndSwap(pk, now) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
		return i, nil
	}, func(int, error) { delivered++ })
	for i := 0; i < 12; i++ {
		w.Submit(i)
		submitted++
		widest = max(widest, submitted-delivered)
	}
	if widest > 4 || delivered < 12-4 {
		t.Fatalf("%d jobs in flight at the widest, %d of 12 delivered before Drain; the window is 2*GOMAXPROCS = 4", widest, delivered)
	}
	w.Drain()
	if delivered != 12 {
		t.Fatalf("delivered %d results, want 12", delivered)
	}
	if pk := peak.Load(); pk > 2 {
		t.Fatalf("%d jobs ran at once, want <= GOMAXPROCS = 2", pk)
	}
}

// TestManyJobsStress drives enough jobs through a window to shake out
// ordering races under -race, and checks a drained window holds no
// goroutine.
func TestManyJobsStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	var got []string
	w := New(func(i int) (string, error) {
		return fmt.Sprintf("job-%d", i), nil
	}, collect(t, &got))
	for i := 0; i < 500; i++ {
		w.Submit(i)
	}
	w.Drain()
	if len(got) != 500 {
		t.Fatalf("delivered %d results, want 500", len(got))
	}
	for i, v := range got {
		if want := fmt.Sprintf("job-%d", i); v != want {
			t.Fatalf("got %q, want %q", v, want)
		}
	}
	// A job's goroutine outlives its result by a few instructions.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Drain, %d before the window", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
