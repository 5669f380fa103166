package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardsLazyOpenAndRoute(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i, tenant := range []string{"alpha", "beta", "gamma"} {
		st, err := sh.Acquire(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(uint64(i), KindCompressed, []byte(tenant)); err != nil {
			t.Fatal(err)
		}
		sh.Release(tenant)
	}
	if got := sh.OpenCount(); got != 3 {
		t.Fatalf("open shards = %d, want 3", got)
	}
	// Same tenant routes to the same store; different tenants are isolated.
	st, err := sh.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := st.Get(0); err != nil || string(got) != "alpha" {
		t.Fatalf("alpha shard Get = %q, %v", got, err)
	}
	if _, _, err := st.Get(1); err != ErrNotFound {
		t.Fatalf("beta's record visible in alpha's shard: %v", err)
	}
	sh.Release("alpha")
	tenants, err := sh.Tenants()
	if err != nil || len(tenants) != 3 {
		t.Fatalf("Tenants = %v, %v", tenants, err)
	}
}

func TestShardsLRUEviction(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := 0; i < 5; i++ {
		tenant := fmt.Sprintf("t%d", i)
		st, err := sh.Acquire(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(7, KindCompressed, []byte(tenant)); err != nil {
			t.Fatal(err)
		}
		sh.Release(tenant)
		if got := sh.OpenCount(); got > 2 {
			t.Fatalf("after %s: %d shards open, bound is 2", tenant, got)
		}
	}
	// Evicted shards reopen transparently with their data intact.
	st, err := sh.Acquire("t0")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := st.Get(7); err != nil || string(got) != "t0" {
		t.Fatalf("reopened evicted shard Get = %q, %v", got, err)
	}
	sh.Release("t0")
}

func TestShardsPinnedNeverEvicted(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	a, err := sh.Acquire("pinned")
	if err != nil {
		t.Fatal(err)
	}
	// Opening more shards while "pinned" is held must not close it —
	// the bound is soft against pins.
	for i := 0; i < 3; i++ {
		tenant := fmt.Sprintf("other%d", i)
		if _, err := sh.Acquire(tenant); err != nil {
			t.Fatal(err)
		}
		sh.Release(tenant)
	}
	if err := a.Put(1, KindCompressed, []byte("still open")); err != nil {
		t.Fatalf("pinned shard was closed under us: %v", err)
	}
	sh.Release("pinned")
}

func TestShardsRejectTraversal(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for _, bad := range []string{"", "../escape", "a/b", `a\b`, ".hidden"} {
		if _, err := sh.Acquire(bad); err == nil {
			t.Errorf("Acquire(%q) succeeded", bad)
		}
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	g := NewGroup(2 * time.Millisecond)
	defer g.Close()

	const writers, frames = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant%d", w%4)
			for i := 0; i < frames; i++ {
				st, err := sh.Acquire(tenant)
				if err != nil {
					errs <- err
					return
				}
				err = st.Put(uint64(w*frames+i), KindCompressed, []byte("payload"))
				if err == nil {
					err = g.Commit(st) // durable before "ack"
				}
				sh.Release(tenant)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	commits, rounds := g.Stats()
	if commits != writers*frames {
		t.Fatalf("commits = %d, want %d", commits, writers*frames)
	}
	if rounds == 0 || rounds >= commits {
		t.Fatalf("group commit did not coalesce: %d rounds for %d commits", rounds, commits)
	}
	t.Logf("group commit: %d commits in %d fsync rounds", commits, rounds)
}

// heldFile is a store file whose fsync signals entered and then waits
// until hold is closed.
type heldFile struct {
	File
	entered chan struct{}
	hold    chan struct{}
	syncs   atomic.Int32
}

func (f *heldFile) Sync() error {
	f.syncs.Add(1)
	select {
	case f.entered <- struct{}{}:
	default:
	}
	<-f.hold
	return f.File.Sync()
}

// TestGroupCloseFlushesAndRejects: Close is called while one Commit waits
// on a round that is on the disk and another is pending behind it. Both
// resolve, each after an fsync of its own round; Close returns after them;
// a Commit once Close has begun is refused at once.
func TestGroupCloseFlushesAndRejects(t *testing.T) {
	raw, err := os.OpenFile(filepath.Join(t.TempDir(), "one.db"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := &heldFile{File: osFile{raw}, entered: make(chan struct{}, 1), hold: make(chan struct{})}
	st, err := OpenWith(f)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := NewGroup(0)
	commit := func(seq uint64) <-chan error {
		if err := st.Put(seq, KindCompressed, []byte("x")); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- g.Commit(st) }()
		return done
	}
	onDisk := commit(1)
	<-f.entered
	pending := commit(2)
	for commits, _ := g.Stats(); commits < 2; commits, _ = g.Stats() {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	for {
		g.mu.Lock()
		closing := g.closed
		g.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Commit(st); err != ErrGroupClosed {
		t.Fatalf("Commit after Close began = %v", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a round on the disk", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(f.hold)
	for name, done := range map[string]<-chan error{"on the disk": onDisk, "pending": pending} {
		if err := <-done; err != nil {
			t.Errorf("Commit %s when Close was called: %v", name, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := f.syncs.Load(); n != 2 {
		t.Errorf("%d fsyncs, want one for each round", n)
	}
}
