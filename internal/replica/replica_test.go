package replica

import (
	"context"
	"errors"
	"hash/crc32"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/store"
)

// follower bundles the receiver side of a live replication pair.
type follower struct {
	t        *testing.T
	dir      string
	shards   *store.Shards
	group    *store.Group
	receiver *Receiver
	srv      *reliable.Server
	addr     string
}

func startFollower(t *testing.T, dir string) *follower {
	t.Helper()
	return startFollowerOn(t, dir, nil)
}

// startFollowerOn is startFollower with the shard files opened by openFile
// (nil: plain files).
func startFollowerOn(t *testing.T, dir string, openFile func(path string) (store.File, error)) *follower {
	t.Helper()
	shards, err := store.OpenShards(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	shards.OpenFile = openFile
	group := store.NewGroup(0)
	recv, err := NewReceiver(shards, group, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := reliable.NewServer(reliable.ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			st, err := shards.Acquire(tenant)
			if err != nil {
				return err
			}
			defer shards.Release(tenant)
			if err := st.Put(m.Seq, store.KindCompressed, m.Payload); err != nil {
				return err
			}
			return group.Commit(st)
		},
		ReplHello:  recv.HandleHello,
		ReplRecord: recv.HandleRecord,
		NotReady:   recv.NotReady,
		Logf:       t.Logf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return &follower{
		t: t, dir: dir, shards: shards, group: group,
		receiver: recv, srv: srv, addr: ln.Addr().String(),
	}
}

func (f *follower) stop() {
	ctx, cancel := timeoutCtx()
	defer cancel()
	f.srv.Shutdown(ctx)
	if err := f.receiver.Close(); err != nil {
		f.t.Errorf("receiver close: %v", err)
	}
	f.group.Close()
	f.shards.SyncAll()
	f.shards.Close()
}

func timeoutCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// primaryShards opens a primary-side shard set with a running sender
// pointed at the follower.
func startSender(t *testing.T, shards *store.Shards, addr string, epoch byte, scrub time.Duration) *Sender {
	t.Helper()
	s, err := NewSender(SenderConfig{
		Shards: shards,
		Addr:   addr,
		DialTo: func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 2*time.Second) },
		Epoch:  epoch,
		Poll:   time.Millisecond,
		// Tests that exercise the scrub pass a short interval; 0 disables.
		ScrubInterval: scrub,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go s.Run()
	return s
}

// appendFrame appends one frame to a tenant shard and returns its end.
func appendFrame(t *testing.T, shards *store.Shards, tenant string, seq uint64, payload []byte) int64 {
	t.Helper()
	st, err := shards.Acquire(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Release(tenant)
	end, err := st.Append(seq, store.KindCompressed, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return end
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationStreamsAndSyncWaits covers the basic contract: records
// appended on the primary arrive on the follower, WaitDurable returns once
// they are follower-durable, and the follower's cold-reopened store holds
// byte-identical payloads.
func TestReplicationStreamsAndSyncWaits(t *testing.T) {
	f := startFollower(t, t.TempDir())
	pdir := t.TempDir()
	shards, err := store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	s := startSender(t, shards, f.addr, 0, 0)
	defer func() { s.Stop(); s.Wait() }()

	var lastEnd int64
	for seq := uint64(0); seq < 20; seq++ {
		lastEnd = appendFrame(t, shards, "tenant00", seq, []byte{byte(seq), 1, 2, 3})
		appendFrame(t, shards, "tenant01", seq, []byte{byte(seq), 9})
	}
	if err := s.WaitDurable("tenant00", lastEnd, 10*time.Second); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	waitFor(t, "tenant01 watermark", func() bool {
		st, err := shards.Acquire("tenant01")
		if err != nil {
			return false
		}
		end := st.End()
		shards.Release("tenant01")
		return f.receiver.Watermark("tenant01") >= end
	})
	if got := f.receiver.Watermark("tenant00"); got < lastEnd {
		t.Fatalf("tenant00 watermark %d < %d", got, lastEnd)
	}

	f.stop()
	// Cold reopen: every record must be there, intact.
	for _, tenant := range []string{"tenant00", "tenant01"} {
		st, err := store.Open(filepath.Join(f.dir, tenant+".db"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != 20 {
			t.Fatalf("%s: %d records, want 20", tenant, st.Len())
		}
		payload, _, err := st.Get(7)
		if err != nil || payload[0] != 7 {
			t.Fatalf("%s seq 7: %v %v", tenant, payload, err)
		}
		st.Close()
	}
}

// TestFollowerRestartCatchUp stops the follower mid-stream, appends more
// on the primary, restarts the follower, and expects the persisted
// watermarks to bound the catch-up: everything converges, nothing is lost.
func TestFollowerRestartCatchUp(t *testing.T) {
	fdir := t.TempDir()
	f := startFollower(t, fdir)
	pdir := t.TempDir()
	shards, err := store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()

	s := startSender(t, shards, f.addr, 0, 0)
	var end int64
	for seq := uint64(0); seq < 10; seq++ {
		end = appendFrame(t, shards, "tenant00", seq, []byte{byte(seq)})
	}
	if err := s.WaitDurable("tenant00", end, 10*time.Second); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	s.Stop()
	s.Wait()
	f.stop()

	// The follower comes back on a new port with its watermarks intact;
	// a fresh sender must seed its cursors from them and ship the gap.
	for seq := uint64(10); seq < 25; seq++ {
		end = appendFrame(t, shards, "tenant00", seq, []byte{byte(seq)})
	}
	f2 := startFollower(t, fdir)
	if w := f2.receiver.Watermark("tenant00"); w <= 0 {
		t.Fatalf("restarted follower lost its watermark: %d", w)
	}
	s2 := startSender(t, shards, f2.addr, 0, 0)
	if err := s2.WaitDurable("tenant00", end, 10*time.Second); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	s2.Stop()
	s2.Wait()
	f2.stop()

	st, err := store.Open(filepath.Join(fdir, "tenant00.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 25 {
		t.Fatalf("follower has %d records, want 25", st.Len())
	}
	for seq := uint64(0); seq < 25; seq++ {
		payload, _, err := st.Get(seq)
		if err != nil || payload[0] != byte(seq) {
			t.Fatalf("seq %d: %v %v", seq, payload, err)
		}
	}
}

// TestPromotionFencesOldPrimary promotes the follower and expects (a) a
// sender still on the old epoch to be fenced, and (b) direct records from
// the old epoch to be rejected.
func TestPromotionFencesOldPrimary(t *testing.T) {
	f := startFollower(t, t.TempDir())
	defer f.stop()
	pdir := t.TempDir()
	shards, err := store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()

	s := startSender(t, shards, f.addr, 0, 0)
	defer func() { s.Stop(); s.Wait() }()
	end := appendFrame(t, shards, "tenant00", 1, []byte("a"))
	if err := s.WaitDurable("tenant00", end, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	epoch, err := f.receiver.Promote()
	if err != nil || epoch != 1 {
		t.Fatalf("promote: %d, %v", epoch, err)
	}
	// Old-epoch record straight into the handler: fenced.
	rec := Record{Epoch: 0, Tenant: "tenant00", Seq: 2, End: end + 100, Prev: end,
		CRC: crc32.Checksum([]byte("b"), castagnoli), Payload: []byte("b")}
	err = f.receiver.HandleRecord(netproto.Message{Kind: netproto.KindReplRecord, Seq: 1, Payload: EncodeRecord(rec)})
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("old-epoch record: %v, want ErrEpochFenced", err)
	}
	// The running sender trips over the fence as soon as it ships again.
	appendFrame(t, shards, "tenant00", 3, []byte("c"))
	waitFor(t, "sender fenced", func() bool { return s.Stats().Fenced })
	// Promotion also opens the node to client traffic.
	if _, _, refuse := f.receiver.NotReady(); refuse {
		t.Fatal("promoted follower still refusing clients")
	}
}

// TestReceiverWatermarkChain drives HandleRecord out of order and expects
// the watermark to advance only when the prev chain closes — no holes
// under the watermark, ever.
func TestReceiverWatermarkChain(t *testing.T) {
	shards, err := store.OpenShards(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()
	recv, err := NewReceiver(shards, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(seq uint64, prev, end int64, payload string) netproto.Message {
		return netproto.Message{Kind: netproto.KindReplRecord, Seq: seq, Payload: EncodeRecord(Record{
			Epoch: 0, Tenant: "t", Seq: seq, Kind: store.KindCompressed,
			End: end, Prev: prev,
			CRC: crc32.Checksum([]byte(payload), castagnoli), Payload: []byte(payload),
		})}
	}
	// Records 1,2,3 cover (0,10], (10,20], (20,30]; 3 and 2 arrive before 1.
	if err := recv.HandleRecord(mk(3, 20, 30, "c")); err != nil {
		t.Fatal(err)
	}
	if w := recv.Watermark("t"); w != 0 {
		t.Fatalf("watermark %d after out-of-order record, want 0", w)
	}
	if err := recv.HandleRecord(mk(2, 10, 20, "b")); err != nil {
		t.Fatal(err)
	}
	if w := recv.Watermark("t"); w != 0 {
		t.Fatalf("watermark %d with chain still open, want 0", w)
	}
	if err := recv.HandleRecord(mk(1, 0, 10, "a")); err != nil {
		t.Fatal(err)
	}
	if w := recv.Watermark("t"); w != 30 {
		t.Fatalf("watermark %d after chain closed, want 30", w)
	}
	// A corrupt payload (CRC mismatch) must be rejected before apply.
	bad := Record{Epoch: 0, Tenant: "t", Seq: 4, End: 40, Prev: 30,
		CRC: 0x1234, Payload: []byte("corrupt")}
	if err := recv.HandleRecord(netproto.Message{Kind: netproto.KindReplRecord, Seq: 4, Payload: EncodeRecord(bad)}); err == nil {
		t.Fatal("crc-mismatched record applied")
	}
	if got := recv.Stats().Rejected; got != 1 {
		t.Fatalf("rejected count %d, want 1", got)
	}
}

// TestScrubRepairsDivergence silently corrupts a record on the follower
// and expects the anti-entropy scrub to detect the digest mismatch and
// re-ship the original — without moving the watermark.
func TestScrubRepairsDivergence(t *testing.T) {
	f := startFollower(t, t.TempDir())
	defer f.stop()
	pdir := t.TempDir()
	shards, err := store.OpenShards(pdir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer shards.Close()

	s := startSender(t, shards, f.addr, 0, 30*time.Millisecond)
	defer func() { s.Stop(); s.Wait() }()
	var end int64
	for seq := uint64(0); seq < 5; seq++ {
		end = appendFrame(t, shards, "tenant00", seq, []byte{0xa0 | byte(seq)})
	}
	if err := s.WaitDurable("tenant00", end, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	wmBefore := f.receiver.Watermark("tenant00")

	// Diverge the follower: shadow seq 2 with garbage, durably.
	st, err := f.shards.Acquire("tenant00")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(2, store.KindCompressed, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	f.shards.Release("tenant00")

	waitFor(t, "scrub repair", func() bool {
		st, err := f.shards.Acquire("tenant00")
		if err != nil {
			return false
		}
		payload, _, gerr := st.Get(2)
		f.shards.Release("tenant00")
		return gerr == nil && len(payload) == 1 && payload[0] == 0xa2
	})
	// The repaired payload is readable as soon as the follower appends it;
	// both sides count the scrub only after it is durable and acked.
	waitFor(t, "scrub counted on both sides", func() bool {
		return s.Stats().ScrubShipped > 0 && f.receiver.Stats().Scrubbed > 0
	})
	if w := f.receiver.Watermark("tenant00"); w != wmBefore {
		t.Fatalf("scrub moved the watermark: %d → %d", wmBefore, w)
	}
}

// TestUnpromotedFollowerRefusesClients exercises the NotReady gate over a
// real connection: a tenant client bounces off the follower busy, and the
// same client succeeds after promotion.
func TestUnpromotedFollowerRefusesClients(t *testing.T) {
	f := startFollower(t, t.TempDir())
	defer f.stop()

	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", f.addr, 2*time.Second) }
	cli, err := reliable.NewClient(reliable.Options{
		Dial: dial, Tenant: "tenant00",
		AckTimeout:  500 * time.Millisecond,
		BusyRetries: 2, MaxStalls: 3,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}); err == nil {
		if err := cli.Close(); err == nil {
			t.Fatal("unpromoted follower accepted a client frame")
		}
	}

	if _, err := f.receiver.Promote(); err != nil {
		t.Fatal(err)
	}
	cli2, err := reliable.NewClient(reliable.Options{Dial: dial, Tenant: "tenant00", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli2.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}); err != nil {
		t.Fatalf("promoted follower refused a client frame: %v", err)
	}
	if err := cli2.Close(); err != nil {
		t.Fatal(err)
	}
}
