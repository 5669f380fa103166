package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardsChurnRace hammers a small shard cache from many goroutines:
// concurrent Acquire/Put/Release across more tenants than open slots (so
// eviction churns constantly), interleaved with SyncAll, Tenants, and
// EachOpen sweeps. Run under -race this is the regression net for the
// cache's locking; the final cold reopen proves churn never lost a synced
// record.
func TestShardsChurnRace(t *testing.T) {
	dir := t.TempDir()
	shards, err := OpenShards(dir, 4) // far fewer slots than tenants
	if err != nil {
		t.Fatal(err)
	}
	const (
		tenants    = 12
		goroutines = 8
		iters      = 120
	)
	var puts [tenants]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 131))
			for i := 0; i < iters; i++ {
				ti := rng.Intn(tenants)
				tenant := fmt.Sprintf("tenant%02d", ti)
				st, err := shards.Acquire(tenant)
				if err != nil {
					t.Errorf("acquire %s: %v", tenant, err)
					return
				}
				seq := uint64(g)<<32 | uint64(i)
				if err := st.Put(seq, KindCompressed, []byte{byte(g), byte(i)}); err != nil {
					t.Errorf("put %s/%d: %v", tenant, seq, err)
					shards.Release(tenant)
					return
				}
				puts[ti].Add(1)
				shards.Release(tenant)
				switch {
				case i%37 == 0:
					if err := shards.SyncAll(); err != nil {
						t.Errorf("syncall: %v", err)
					}
				case i%23 == 0:
					if _, err := shards.Tenants(); err != nil {
						t.Errorf("tenants: %v", err)
					}
				case i%17 == 0:
					shards.OpenCount()
					err := shards.EachOpen(func(string, *Store) error { return nil })
					if err != nil {
						t.Errorf("eachopen: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := shards.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := shards.Close(); err != nil {
		t.Fatal(err)
	}
	// Cold reopen: every put must have survived the cache churn.
	for ti := 0; ti < tenants; ti++ {
		want := int(puts[ti].Load())
		st, err := Open(filepath.Join(dir, fmt.Sprintf("tenant%02d.db", ti)))
		if err != nil {
			if want == 0 && os.IsNotExist(errors.Unwrap(err)) {
				continue
			}
			t.Fatalf("reopen tenant%02d: %v", ti, err)
		}
		if st.Len() != want {
			t.Errorf("tenant%02d: %d records after reopen, want %d", ti, st.Len(), want)
		}
		st.Close()
	}
}

// TestTornTailRebuildWatermark tears the segment mid-record — the classic
// torn tail a power loss leaves — and expects the rebuild to stop exactly
// at the last intact record: Seqs() lists the surviving prefix, End() is
// the durable watermark the replication layer keys on, and the store
// accepts fresh appends from there.
func TestTornTailRebuildWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.db")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for seq := uint64(1); seq <= 5; seq++ {
		end, err := st.Append(seq, KindCompressed, []byte{byte(seq), 0xaa, 0xbb})
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear: cut 2 bytes into record 5's header/payload.
	if err := os.Truncate(path, ends[3]+2); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seqs := st.Seqs()
	if len(seqs) != 4 {
		t.Fatalf("Seqs() = %v, want the 4-record prefix", seqs)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("Seqs()[%d] = %d, want %d", i, seq, i+1)
		}
	}
	if st.End() != ends[3] {
		t.Fatalf("End() = %d after torn tail, want %d", st.End(), ends[3])
	}
	if _, _, err := st.Get(5); err == nil {
		t.Fatal("torn record 5 still readable")
	}
	// The watermark is writable again: a fresh append lands at the tail.
	end, err := st.Append(6, KindCompressed, []byte{6})
	if err != nil {
		t.Fatal(err)
	}
	if end <= ends[3] {
		t.Fatalf("append after tear ended at %d, want past %d", end, ends[3])
	}
	if recs, err := st.ReadSince(ends[3], 1<<20); err != nil || len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("ReadSince after tear: %v, %v", recs, err)
	}
}

// flakyFile wraps a File and fails Sync on demand.
type flakyFile struct {
	File
	failSync atomic.Bool
}

func (f *flakyFile) Sync() error {
	if f.failSync.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestGroupStickyError: an fsync failure inside a commit round must latch
// in Err()/ErrCount() and reach OnError — the failing round's callers get
// the error, and the latch is how the rest of a deployment notices.
func TestGroupStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames.db")
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: osFile{raw}}
	st, err := OpenWith(ff)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g := NewGroup(0)
	var reported atomic.Int64
	g.OnError = func(error) { reported.Add(1) }

	if err := st.Put(1, KindCompressed, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(st); err != nil {
		t.Fatalf("healthy commit: %v", err)
	}
	if g.Err() != nil {
		t.Fatalf("premature sticky error: %v", g.Err())
	}

	ff.failSync.Store(true)
	if err := st.Put(2, KindCompressed, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(st); err == nil {
		t.Fatal("commit over failing fsync returned nil")
	}
	if g.Err() == nil || g.ErrCount() == 0 {
		t.Fatalf("fsync failure not latched: err=%v count=%d", g.Err(), g.ErrCount())
	}
	if reported.Load() == 0 {
		t.Fatal("OnError never called")
	}

	// The latch is sticky: recovery clears neither Err nor the count.
	ff.failSync.Store(false)
	if err := st.Put(3, KindCompressed, []byte("ok again")); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(st); err != nil {
		t.Fatalf("recovered commit: %v", err)
	}
	if g.Err() == nil {
		t.Fatal("sticky error cleared by a healthy round")
	}
	g.Close()
}
