package declimits

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Points(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := b.Nodes(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := b.Mem(1 << 60); err != nil {
		t.Fatal(err)
	}
	if err := b.Section(1 << 60); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	b := New(Limits{})
	if err := b.Points(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := b.Nodes(1 << 40); err != nil {
		t.Fatal(err)
	}
}

func TestChargesExhaust(t *testing.T) {
	b := New(Limits{MaxPoints: 10})
	if err := b.Points(7); err != nil {
		t.Fatal(err)
	}
	if err := b.Points(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Points(1); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
}

func TestPointsChargeMemory(t *testing.T) {
	// 10 points fit the point cap but not the memory cap.
	b := New(Limits{MaxPoints: 10, MemBudget: 5 * pointBytes})
	if err := b.Points(10); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit from memory budget, got %v", err)
	}
}

func TestSectionCap(t *testing.T) {
	b := New(Limits{MaxSectionBytes: 100})
	if err := b.Section(100); err != nil {
		t.Fatal(err)
	}
	if err := b.Section(101); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Limits{Ctx: ctx})
	if err := b.Check(); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit from cancelled context, got %v", err)
	}
	// Periodic polling inside the charge path notices too.
	var err error
	for i := 0; i < 2*ctxPollInterval && err == nil; i++ {
		err = b.Nodes(1)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit from polled context, got %v", err)
	}
}

func TestConcurrentCharges(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	b := New(Limits{MaxNodes: workers*perWorker + 1, MemBudget: 1 << 40})
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := b.Nodes(1); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := b.Nodes(2); !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit after concurrent exhaustion, got %v", err)
	}
}

func TestCapPrealloc(t *testing.T) {
	if got := CapPrealloc(100); got != 100 {
		t.Fatalf("CapPrealloc(100) = %d", got)
	}
	if got := CapPrealloc(1 << 60); got != 1<<22 {
		t.Fatalf("CapPrealloc(1<<60) = %d", got)
	}
}

func TestRecover(t *testing.T) {
	sentinel := errors.New("pkg: corrupt")
	f := func() (err error) {
		defer Recover(&err, sentinel)
		panic("index out of range")
	}
	if err := f(); !errors.Is(err, sentinel) {
		t.Fatalf("want wrapped sentinel, got %v", err)
	}
}

// TestPrealloc: a declared count is a capacity only when what is left of
// the budget could pay for it, and never more than the clamp.
func TestPrealloc(t *testing.T) {
	var unlimited *Budget
	if got := unlimited.Prealloc(100); got != 100 {
		t.Fatalf("nil budget: %d", got)
	}
	if got := unlimited.Prealloc(1 << 40); got != CapPrealloc(1<<40) {
		t.Fatalf("nil budget is not clamped: %d", got)
	}
	b := New(Limits{MaxPoints: 1000})
	if got := b.Prealloc(1000); got != 1000 {
		t.Fatalf("affordable: %d", got)
	}
	if got := b.Prealloc(1001); got != 0 {
		t.Fatalf("over MaxPoints: %d", got)
	}
	if err := b.Points(600); err != nil {
		t.Fatal(err)
	}
	if got := b.Prealloc(401); got != 0 {
		t.Fatalf("over what is left: %d", got)
	}
	if got := New(Limits{MemBudget: 24 * 10}).Prealloc(11); got != 0 {
		t.Fatalf("over MemBudget: %d", got)
	}
	b.Points(1 << 20) // overdrawn
	if got := b.Prealloc(1); got != 0 {
		t.Fatalf("overdrawn budget: %d", got)
	}
}
