package store

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// heldSync is a segment file whose fsync waits to be let through. It keeps
// the highest offset written so far and, for every Sync, what that was when
// the Sync began — the most the Sync may claim to have made durable.
type heldSync struct {
	File

	mu      sync.Mutex
	written int64
	covered int64         // written, as of the start of the last Sync that returned
	closed  bool          // the file was closed
	began   chan struct{} // one token per Sync that has begun
	let     chan struct{} // one token lets one Sync through
}

func holdSyncs(t *testing.T) (*Store, *heldSync) {
	t.Helper()
	st, err := Open(filepath.Join(t.TempDir(), "frames.db"))
	if err != nil {
		t.Fatal(err)
	}
	h := &heldSync{File: st.f, began: make(chan struct{}, 16), let: make(chan struct{}, 16)}
	st.f = h
	return st, h
}

func (h *heldSync) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.File.WriteAt(p, off)
	h.mu.Lock()
	h.written = max(h.written, off+int64(n))
	h.mu.Unlock()
	return n, err
}

func (h *heldSync) Sync() error {
	h.mu.Lock()
	if h.closed {
		panic("Sync of a closed file")
	}
	at := h.written
	h.mu.Unlock()
	h.began <- struct{}{}
	<-h.let
	err := h.File.Sync()
	h.mu.Lock()
	h.covered = at
	h.mu.Unlock()
	return err
}

func (h *heldSync) Close() error {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	return h.File.Close()
}

func (h *heldSync) coveredTo() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.covered
}

func within(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestAppendFlowsDuringSyncAndCommitCoversIt pins both halves of the commit
// contract with fsync outside the index lock: an Append returns while a
// round's fsync is still on the disk, and the Commit called after it returns
// only after a Sync that began after that call — never on the strength of
// the round that was already in flight.
func TestAppendFlowsDuringSyncAndCommitCoversIt(t *testing.T) {
	st, disk := holdSyncs(t)
	g := NewGroup(0)
	commit := func(done chan<- struct{}) {
		if err := g.Commit(st); err != nil {
			t.Error(err)
		}
		close(done)
	}

	endA, err := st.Append(1, KindCompressed, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	doneA := make(chan struct{})
	go commit(doneA)
	within(t, "the first round's fsync to begin", disk.began)

	// The fsync of round one is held. An append must not wait for it.
	appended := make(chan struct{})
	var endB int64
	go func() {
		defer close(appended)
		var err error
		if endB, err = st.Append(2, KindCompressed, []byte("second")); err != nil {
			t.Error(err)
		}
	}()
	within(t, "an Append while an fsync is in flight", appended)
	doneB := make(chan struct{})
	go commit(doneB)
	for commits, _ := g.Stats(); commits < 2; commits, _ = g.Stats() {
		time.Sleep(time.Millisecond)
	}

	disk.let <- struct{}{}
	within(t, "the first Commit", doneA)
	if got := disk.coveredTo(); got != endA {
		t.Fatalf("round one covered %d bytes, want the first record's end %d", got, endA)
	}
	within(t, "the second round's fsync to begin", disk.began)
	select {
	case <-doneB:
		t.Fatal("Commit returned on a Sync that began before its record was appended")
	case <-time.After(20 * time.Millisecond):
	}
	disk.let <- struct{}{}
	within(t, "the second Commit", doneB)
	if got := disk.coveredTo(); got < endB {
		t.Fatalf("the second Commit returned with %d bytes covered, its record ends at %d", got, endB)
	}
	if commits, rounds := g.Stats(); commits != 2 || rounds != 2 {
		t.Errorf("%d commits in %d rounds, want 2 in 2", commits, rounds)
	}

	disk.let <- struct{}{} // Close's own flush
	g.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForSyncInFlight: Close does not pull the file from under an
// fsync that has begun (heldSync panics on a Sync after Close).
func TestCloseWaitsForSyncInFlight(t *testing.T) {
	st, disk := holdSyncs(t)
	if err := st.Put(1, KindCompressed, []byte("x")); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- st.Sync() }()
	within(t, "the fsync to begin", disk.began)
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an fsync in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	disk.let <- struct{}{} // the Sync in flight
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	disk.let <- struct{}{} // Close's own flush
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestQuarantineNeverShadowsGoodCopy races good appends against quarantines
// of the same sequence numbers: whichever order the two reach the store in,
// a sequence number whose good Append has returned reads back good — then
// and ever after.
func TestQuarantineNeverShadowsGoodCopy(t *testing.T) {
	st, _ := tempStore(t)
	defer st.Close()
	const frames = 1000
	var acked [frames]bool // written by the appender, read after the wait
	var wg sync.WaitGroup
	wg.Add(3)
	start := make(chan struct{})
	go func() {
		defer wg.Done()
		<-start
		for seq := uint64(0); seq < frames; seq++ {
			if _, err := st.Append(seq, KindCompressed, payloadFor(seq)); err != nil {
				t.Error(err)
				return
			}
			acked[seq] = true
			if kind, _ := st.Kind(seq); kind != KindCompressed {
				t.Errorf("frame %d reads back kind %d right after its good Append", seq, kind)
			}
		}
	}()
	wrote := make([]int, 2)
	for q := range wrote {
		go func() {
			defer wg.Done()
			<-start
			// One quarantiner runs ahead of the appender, one behind it.
			for i := uint64(0); i < frames; i++ {
				seq := i
				if q == 1 {
					seq = (i + frames/2) % frames
				}
				written, err := st.Quarantine(seq, []byte("damaged in flight"))
				if err != nil {
					t.Error(err)
					return
				}
				if written {
					wrote[q]++
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for seq := uint64(0); seq < frames; seq++ {
		if got, kind, err := st.Get(seq); !acked[seq] || err != nil || kind != KindCompressed || string(got) != string(payloadFor(seq)) {
			t.Fatalf("frame %d: acked %v, kind %d, %v", seq, acked[seq], kind, err)
		}
	}
	t.Logf("quarantines that got in first: %v of %d each", wrote, frames)

	// Alone, Quarantine keeps the payload, and a second one replaces it.
	for _, payload := range []string{"bad", "worse"} {
		if written, err := st.Quarantine(frames, []byte(payload)); err != nil || !written {
			t.Fatalf("quarantine of a number nothing holds: %v, %v", written, err)
		}
		if got, kind, _ := st.Get(frames); kind != KindQuarantined || string(got) != payload {
			t.Fatalf("reads back kind %d %q", kind, got)
		}
	}
}
