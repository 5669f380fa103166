package reliable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/store"
)

// barrier opens once n callers have arrived; a caller that waits too long
// gets an error instead of hanging the test.
type barrier struct {
	n       int32
	arrived atomic.Int32
	open    chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: int32(n), open: make(chan struct{})} }

func (b *barrier) wait() error {
	if b.arrived.Add(1) == b.n {
		close(b.open)
	}
	select {
	case <-b.open:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("only %d of %d frames entered the handler together", b.arrived.Load(), b.n)
	}
}

// sendFrames writes one small data frame per sequence number on a raw
// connection, without reading anything back.
func sendFrames(t *testing.T, conn net.Conn, seqs ...uint64) {
	t.Helper()
	for _, seq := range seqs {
		if err := netproto.Write(conn, netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: testPayload(seq, 64)}); err != nil {
			t.Fatal(err)
		}
	}
}

// readResponses reads n responses and returns their kinds by sequence
// number, in arrival order per number.
func readResponses(t *testing.T, conn net.Conn, n int) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < n; i++ {
		m, err := netproto.Read(conn)
		if err != nil {
			t.Fatalf("response %d of %d: %v (so far %v)", i+1, n, err, got)
		}
		got[m.Seq] = append(got[m.Seq], m.Kind)
	}
	return got
}

// TestSessionHandlesQueueTogether: every frame that holds a slot of the
// session queue is inside Handle at the same time — the handler only returns
// once QueueDepth frames of the one session have entered it.
func TestSessionHandlesQueueTogether(t *testing.T) {
	const depth = 8
	together := newBarrier(depth)
	srv, addr := startTenantServer(t, ServerConfig{
		Handle:     func(string, netproto.Message) error { return together.wait() },
		QueueDepth: depth,
		Logf:       t.Logf,
	})
	cli, err := NewClient(Options{Dial: tcpDial(addr), Tenant: "acme", MaxInFlight: depth + 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < depth; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cli.Stats(); st.Acked != depth || st.Nacked != 0 || st.BusyNacked != 0 {
		t.Fatalf("client saw %+v, want %d acks and nothing else", st, depth)
	}
	if m := srv.Metrics().Snapshot(); m.Acked != depth || m.Nacked != 0 {
		t.Fatalf("server counted %+v", m)
	}
}

// TestSessionIsolatesFailuresAmongNeighbours: of a queue's worth of frames
// inside the handler together, the one that panics and the one that is
// undecodable are nacked and quarantined — each its own frame, once — while
// every neighbour is acked.
func TestSessionIsolatesFailuresAmongNeighbours(t *testing.T) {
	const depth = 6
	const panics, undecodable = 2, 4
	together := newBarrier(depth)
	var mu sync.Mutex
	quarantined := map[uint64]int{}
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if err := together.wait(); err != nil {
				return err
			}
			switch m.Seq {
			case panics:
				panic("decoder exploded")
			case undecodable:
				return fmt.Errorf("%w: not a dbgc stream", ErrBadFrame)
			}
			return nil
		},
		Quarantine: func(_ string, m netproto.Message, _ string) {
			mu.Lock()
			quarantined[m.Seq]++
			mu.Unlock()
		},
		QueueDepth: depth,
		Logf:       t.Logf,
	})
	conn, hello := rawHello(t, addr, "acme")
	defer conn.Close()
	if hello.Kind != netproto.KindAck {
		t.Fatalf("hello: %+v", hello)
	}
	sendFrames(t, conn, 0, 1, 2, 3, 4, 5)
	got := readResponses(t, conn, depth)
	for seq := uint64(0); seq < depth; seq++ {
		want := netproto.KindAck
		if seq == panics || seq == undecodable {
			want = netproto.KindNack
		}
		if len(got[seq]) != 1 || got[seq][0] != want {
			t.Errorf("frame %d answered with kinds %v, want one of kind %d", seq, got[seq], want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(quarantined) != 2 || quarantined[panics] != 1 || quarantined[undecodable] != 1 {
		t.Errorf("quarantined %v, want frames %d and %d once each", quarantined, panics, undecodable)
	}
	if m := srv.Metrics().Snapshot(); m.Acked != depth-2 || m.Nacked != 2 || m.Quarantined != 2 {
		t.Errorf("server counted %+v", m)
	}
}

// TestDrainWaitsForHandlersInFlight: a session whose client said goodbye, and
// the server's Shutdown behind it, end only when every handler in flight has
// returned; each accepted frame still gets its ack, and every backpressure
// token is back (the tenant leaves the registry only with none in flight).
func TestDrainWaitsForHandlersInFlight(t *testing.T) {
	const depth = 5
	entered := make(chan struct{}, depth)
	release := make(chan struct{})
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(string, netproto.Message) error {
			entered <- struct{}{}
			<-release
			return nil
		},
		QueueDepth: depth,
		Logf:       t.Logf,
	})
	conn, hello := rawHello(t, addr, "acme")
	defer conn.Close()
	if hello.Kind != netproto.KindAck {
		t.Fatalf("hello: %+v", hello)
	}
	sendFrames(t, conn, 0, 1, 2, 3, 4)
	for i := 0; i < depth; i++ {
		<-entered
	}
	if err := netproto.Write(conn, netproto.Message{Kind: netproto.KindBye}); err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) with %d handlers in flight", err, depth)
	case <-time.After(100 * time.Millisecond):
	}
	if m := srv.Metrics().Snapshot(); m.InflightFrames != depth || m.ActiveSessions != 1 {
		t.Fatalf("while the handlers are held: %+v", m)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := readResponses(t, conn, depth)
	for seq := uint64(0); seq < depth; seq++ {
		if len(got[seq]) != 1 || got[seq][0] != netproto.KindAck {
			t.Errorf("frame %d accepted before the goodbye answered with %v", seq, got[seq])
		}
	}
	m := srv.Metrics().Snapshot()
	if m.Acked != depth || m.InflightFrames != 0 || m.ActiveSessions != 0 || m.ActiveTenants != 0 {
		t.Errorf("after the drain: %+v", m)
	}
}

// TestDuplicateInHandlerAcksWhenDurable: a retransmit that arrives while the
// first copy of its sequence number is still in the handler goes through the
// handler too; each copy is acked after its own commit, neither is nacked,
// and the stored frame stays the good one.
func TestDuplicateInHandlerAcksWhenDurable(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "frames.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	group := store.NewGroup(0)
	defer group.Close()
	both := newBarrier(2)
	var durable atomic.Int32
	_, addr := startTenantServer(t, ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if err := both.wait(); err != nil {
				return err
			}
			if _, err := st.Append(m.Seq, store.KindCompressed, m.Payload); err != nil {
				return err
			}
			if err := group.Commit(st); err != nil {
				return err
			}
			durable.Add(1)
			return nil
		},
		Logf: t.Logf,
	})
	conn, hello := rawHello(t, addr, "acme")
	defer conn.Close()
	if hello.Kind != netproto.KindAck {
		t.Fatalf("hello: %+v", hello)
	}
	sendFrames(t, conn, 7, 7)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 1; i <= 2; i++ {
		m, err := netproto.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != netproto.KindAck || m.Seq != 7 {
			t.Fatalf("response %d: %+v, want an ack of frame 7", i, m)
		}
		if d := int(durable.Load()); d < i {
			t.Fatalf("ack %d of frame 7 arrived with %d copies committed", i, d)
		}
	}
	if got, kind, err := st.Get(7); err != nil || kind != store.KindCompressed || !bytes.Equal(got, testPayload(7, 64)) {
		t.Fatalf("stored frame 7: kind %d, %d bytes, %v", kind, len(got), err)
	}
}

// replRecord is a replication frame as the session sees it: the payload is
// the handler's business.
func replRecord(seq uint64, size int) netproto.Message {
	return netproto.Message{Kind: netproto.KindReplRecord, Seq: seq, Payload: testPayload(seq, size)}
}

// TestReplicationPeerIsPacedNotRefused: a primary that writes a whole
// MaxInFlight window of records into a follower session with a short queue,
// reading nothing until the last one is out — what replica.Sender's one
// goroutine does while Send blocks — is neither refused busy nor deadlocked:
// the session stops reading while its queue is full, the handlers' acks
// (64 of ~20 bytes) never wait for the peer to read, and every record is
// acked exactly once.
func TestReplicationPeerIsPacedNotRefused(t *testing.T) {
	const window, depth = 64, 2
	var inHandler, most atomic.Int32
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(string, netproto.Message) error { return errors.New("no client traffic here") },
		ReplRecord: func(netproto.Message) error {
			n := inHandler.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			time.Sleep(time.Millisecond)
			inHandler.Add(-1)
			return nil
		},
		QueueDepth: depth,
		Logf:       t.Logf,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
	for seq := uint64(1); seq <= window; seq++ {
		if err := netproto.Write(conn, replRecord(seq, 128<<10)); err != nil {
			t.Fatalf("record %d: %v", seq, err)
		}
	}
	got := readResponses(t, conn, window)
	for seq := uint64(1); seq <= window; seq++ {
		if len(got[seq]) != 1 || got[seq][0] != netproto.KindReplAck {
			t.Errorf("record %d answered with %v, want one repl ack", seq, got[seq])
		}
	}
	m := srv.Metrics().Snapshot()
	if m.BusyNacked != 0 || m.Nacked != 0 || m.ReplRecords != window || m.Acked != window {
		t.Errorf("server counted %+v, want %d records acked and none refused", m, window)
	}
	if most.Load() > depth {
		t.Errorf("%d records in the handler at once through a queue of %d", most.Load(), depth)
	}
}

// TestCorruptReplicationRecordCountedNotQuarantined: a replication record
// that fails its wire checksum is nacked (the primary retransmits) and
// counted, and the Quarantine hook — which files payloads under a tenant —
// never sees it, bound session or not.
func TestCorruptReplicationRecordCountedNotQuarantined(t *testing.T) {
	var hooked atomic.Int32
	srv, addr := startTenantServer(t, ServerConfig{
		Handle:     func(string, netproto.Message) error { return nil },
		ReplRecord: func(netproto.Message) error { return nil },
		Quarantine: func(string, netproto.Message, string) { hooked.Add(1) },
		Logf:       t.Logf,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	corrupt := func(seq uint64) {
		t.Helper()
		var wire bytes.Buffer
		if err := netproto.Write(&wire, replRecord(seq, 256)); err != nil {
			t.Fatal(err)
		}
		wire.Bytes()[wire.Len()-1] ^= 0xff
		if _, err := conn.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(1) // before the session is bound to the replication peer
	if err := netproto.Write(conn, replRecord(2, 256)); err != nil {
		t.Fatal(err)
	}
	corrupt(3) // and after
	got := readResponses(t, conn, 3)
	for seq, want := range map[uint64]byte{1: netproto.KindNack, 2: netproto.KindReplAck, 3: netproto.KindNack} {
		if len(got[seq]) != 1 || got[seq][0] != want {
			t.Errorf("record %d answered with %v, want kind %d", seq, got[seq], want)
		}
	}
	if m := srv.Metrics().Snapshot(); m.Quarantined != 2 {
		t.Errorf("%d quarantine events counted, want 2", m.Quarantined)
	}
	if n := hooked.Load(); n != 0 {
		t.Errorf("the quarantine hook saw %d replication records", n)
	}
}
