package replica

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/store"
)

// syncGate holds back the fsyncs of the shard files opened through it:
// between hold and release every Sync waits.
type syncGate struct {
	mu    sync.Mutex
	held  chan struct{} // nil: open
	opens atomic.Int64  // files opened
}

func (g *syncGate) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held == nil {
		g.held = make(chan struct{})
	}
}

func (g *syncGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
}

// openFile is a store.Shards.OpenFile.
func (g *syncGate) openFile(path string) (store.File, error) {
	g.opens.Add(1)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	*os.File
	gate *syncGate
}

func (f gatedFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (f gatedFile) Sync() error {
	f.gate.mu.Lock()
	held := f.gate.held
	f.gate.mu.Unlock()
	if held != nil {
		<-held
	}
	return f.File.Sync()
}

// followerHolds reports whether the follower's shard has a live record seq
// with this payload.
func followerHolds(f *follower, tenant string, seq uint64, payload string) bool {
	st, err := f.shards.Acquire(tenant)
	if err != nil {
		return false
	}
	defer f.shards.Release(tenant)
	got, _, err := st.Get(seq)
	return err == nil && string(got) == payload
}

// TestRestartAfterLostTail: a primary that lost an un-fsynced tail the
// follower already holds restarts with the follower's watermark past its own
// end. A record it then appends below that mark is new to the follower, and
// WaitDurable must wait for it like for any other.
func TestRestartAfterLostTail(t *testing.T) {
	f := startFollower(t, t.TempDir())
	pdir := t.TempDir()
	shards, err := store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := startSender(t, shards, f.addr, 0, 0)
	var ends []int64
	for seq := uint64(1); seq <= 3; seq++ {
		ends = append(ends, appendFrame(t, shards, "tenant00", seq, []byte("a long enough payload")))
	}
	if err := s.WaitDurable("tenant00", ends[2], 10*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	s.Wait()
	if err := shards.Close(); err != nil {
		t.Fatal(err)
	}
	f.stop()

	// The crash: record 3 never reached the primary's disk.
	if err := os.Truncate(filepath.Join(pdir, "tenant00.db"), ends[1]); err != nil {
		t.Fatal(err)
	}
	var gate syncGate
	f2 := startFollowerOn(t, f.dir, gate.openFile)
	defer f2.stop()
	if w := f2.receiver.Watermark("tenant00"); w != ends[2] {
		t.Fatalf("follower's watermark %d, want the lost tail's end %d", w, ends[2])
	}
	shards, err = store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	// Poll is the retry timer and nothing else: no record waits for it.
	s2, err := NewSender(SenderConfig{
		Shards: shards, Addr: f2.addr, Poll: time.Hour, Logf: t.Logf,
		DialTo: func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 2*time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	go s2.Run()
	defer func() { s2.Stop(); s2.Wait() }()
	defer gate.release()
	waitFor(t, "the restarted sender to settle", func() bool {
		st := s2.Stats()
		return st.LinkUp && st.InFlight == 0
	})

	// With the follower's fsyncs held nothing new can be acked.
	gate.hold()
	end := appendFrame(t, shards, "tenant00", 4, []byte("short"))
	if end >= ends[2] {
		t.Fatalf("new record ends at %d, the test wants it below the watermark %d", end, ends[2])
	}
	if err := s2.WaitDurable("tenant00", end, 100*time.Millisecond); !errors.Is(err, ErrReplTimeout) {
		t.Fatalf("WaitDurable with the follower's fsync held: %v, want ErrReplTimeout", err)
	}
	gate.release()
	if err := s2.WaitDurable("tenant00", end, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !followerHolds(f2, "tenant00", 4, "short") {
		t.Fatal("WaitDurable returned, the follower does not hold the record")
	}
	if st := s2.Stats(); st.FromMemory != 1 || st.FromDisk != 0 {
		t.Errorf("shipped %d from memory and %d from disk, want the one new record from memory", st.FromMemory, st.FromDisk)
	}
}

// TestShadowedCopyIsShippedAndWaitedFor: two copies of one sequence number
// are two records. Both ship, and waiting for the earlier one's end is
// waiting for its own ack — the later copy on the wire does not stand in.
func TestShadowedCopyIsShippedAndWaitedFor(t *testing.T) {
	var gate syncGate
	gate.hold()
	f := startFollowerOn(t, t.TempDir(), gate.openFile)
	defer f.stop()
	shards, err := store.OpenShards(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()

	// A frame and its retransmit, both appended before the sender runs.
	first := appendFrame(t, shards, "tenant00", 7, []byte("copy"))
	second := appendFrame(t, shards, "tenant00", 7, []byte("copy"))
	s := startSender(t, shards, f.addr, 0, 0)
	defer func() { s.Stop(); s.Wait() }()
	defer gate.release()
	waitFor(t, "both copies on the wire", func() bool { return s.Stats().InFlight == 2 })
	if lag := s.Stats().LagBytes; lag != second {
		t.Errorf("lag %d bytes with both records unacked, want all %d", lag, second)
	}
	if err := s.WaitDurable("tenant00", first, 100*time.Millisecond); !errors.Is(err, ErrReplTimeout) {
		t.Fatalf("WaitDurable(earlier copy) with the follower's fsync held: %v, want ErrReplTimeout", err)
	}
	gate.release()
	if err := s.WaitDurable("tenant00", second, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := f.receiver.Stats().Records; got != 2 {
		t.Errorf("follower applied %d records, want both copies", got)
	}
	if st := s.Stats(); st.FromDisk != 2 || st.FromMemory != 0 {
		t.Errorf("shipped %d from disk and %d from memory, want both copies from disk", st.FromDisk, st.FromMemory)
	}
}

// TestStatsLagWithoutOpeningShards: Stats takes the lag from what Append
// announced. It opens no shard, however many the directory holds and however
// few fit the open set.
func TestStatsLagWithoutOpeningShards(t *testing.T) {
	f := startFollower(t, t.TempDir())
	defer f.stop()
	shards, err := store.OpenShards(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	var gate syncGate // never held: it counts the shard files opened
	shards.OpenFile = gate.openFile
	s, err := NewSender(SenderConfig{
		Shards: shards, Addr: f.addr, Logf: t.Logf,
		DialTo: func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 2*time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Stop(); s.Wait() }()

	// Not running yet: everything appended is lag.
	var want int64
	ends := map[string]int64{}
	for _, tenant := range []string{"tenant00", "tenant01", "tenant02"} {
		ends[tenant] = appendFrame(t, shards, tenant, 1, []byte(tenant))
		want += ends[tenant]
	}
	before := gate.opens.Load()
	for i := 0; i < 10; i++ {
		if lag := s.Stats().LagBytes; lag != want {
			t.Fatalf("lag %d bytes before the sender runs, want %d", lag, want)
		}
	}
	if after := gate.opens.Load(); after != before {
		t.Errorf("Stats opened %d shards", after-before)
	}
	go s.Run()
	for tenant, end := range ends {
		if err := s.WaitDurable(tenant, end, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.LagBytes != 0 || st.Records != 3 {
		t.Errorf("caught up: %+v, want no lag and three records shipped", st)
	}
}

// scriptedFollower is the follower's half of the replication dialect on a
// bare listener: it acks every record at once and keeps the order they came
// in, and it can be cut off and brought back.
type scriptedFollower struct {
	t    *testing.T
	ln   net.Listener
	down atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
	got   map[string][]Record // per tenant, in arrival order, payloads dropped
}

func startScriptedFollower(t *testing.T) *scriptedFollower {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &scriptedFollower{t: t, ln: ln, got: make(map[string][]Record)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.mu.Lock()
			f.conns = append(f.conns, conn)
			f.mu.Unlock()
			go f.serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.sever()
	})
	return f
}

func (f *scriptedFollower) serve(conn net.Conn) {
	defer conn.Close()
	for {
		m, err := netproto.Read(conn)
		if err != nil {
			return
		}
		reply := netproto.Message{Kind: netproto.KindReplAck, Seq: m.Seq}
		switch m.Kind {
		case netproto.KindReplHello:
			reply.Payload = EncodeWatermarks(0, nil)
		case netproto.KindReplRecord:
			rec, err := DecodeRecord(m.Payload)
			if err != nil {
				f.t.Errorf("record on the wire: %v", err)
				return
			}
			rec.Payload = nil
			f.mu.Lock()
			f.got[rec.Tenant] = append(f.got[rec.Tenant], rec)
			f.mu.Unlock()
		default:
			continue
		}
		if err := netproto.Write(conn, reply); err != nil {
			return
		}
	}
}

// sever cuts every connection and refuses new ones until restore.
func (f *scriptedFollower) sever() {
	f.down.Store(true)
	f.mu.Lock()
	for _, conn := range f.conns {
		conn.Close()
	}
	f.conns = nil
	f.mu.Unlock()
}

func (f *scriptedFollower) restore() { f.down.Store(false) }

func (f *scriptedFollower) dial(addr string) (net.Conn, error) {
	if f.down.Load() {
		return nil, errors.New("link severed")
	}
	return net.DialTimeout("tcp", addr, 2*time.Second)
}

// TestSeveredLinkCatchesUpFromDisk: while the link holds, records go out from
// the payload Append announced. Cut it, and appends outgrow the hand-off
// (BatchBytes); bring it back, and the sender reads what it dropped from the
// segment. Every record arrives once, in its tenant's append order, each
// chained to the one before.
func TestSeveredLinkCatchesUpFromDisk(t *testing.T) {
	f := startScriptedFollower(t)
	shards, err := store.OpenShards(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	s, err := NewSender(SenderConfig{
		Shards: shards, Addr: f.ln.Addr().String(), DialTo: f.dial,
		Poll: time.Millisecond, BatchBytes: 100, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	defer func() { s.Stop(); s.Wait() }()

	tenants := []string{"tenant00", "tenant01"}
	ends := map[string]int64{}
	appendRound := func(from, to uint64) {
		for seq := from; seq <= to; seq++ {
			for _, tenant := range tenants {
				ends[tenant] = appendFrame(t, shards, tenant, seq, []byte("sixteen bytes...."))
			}
		}
	}
	waitAll := func() {
		t.Helper()
		for _, tenant := range tenants {
			if err := s.WaitDurable(tenant, ends[tenant], 10*time.Second); err != nil {
				t.Fatalf("%s: %v", tenant, err)
			}
		}
	}
	// One round at a time fits the hand-off: nothing is read back.
	for seq := uint64(1); seq <= 3; seq++ {
		appendRound(seq, seq)
		waitAll()
	}
	if st := s.Stats(); st.FromDisk != 0 || st.FromMemory != 6 {
		t.Fatalf("link up: %d records from disk and %d from memory, want 0 and 6", st.FromDisk, st.FromMemory)
	}

	f.sever()
	appendRound(4, 23)
	f.restore()
	waitAll()

	st := s.Stats()
	if st.FromDisk == 0 || st.FromMemory+st.FromDisk != 46 || st.Records != 46 {
		t.Errorf("after the outage: %+v, want 46 records, some of them from disk", st)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, tenant := range tenants {
		var seqs, want []uint64
		var prev int64
		for _, rec := range f.got[tenant] {
			seqs = append(seqs, rec.Seq)
			if rec.Prev != prev {
				t.Errorf("%s record %d: prev %d, the record before it ended at %d", tenant, rec.Seq, rec.Prev, prev)
			}
			prev = rec.End
		}
		for seq := uint64(1); seq <= 23; seq++ {
			want = append(want, seq)
		}
		if !slices.Equal(seqs, want) {
			t.Errorf("%s arrived as %v, want each of 1..23 once and in order", tenant, seqs)
		}
	}
}
