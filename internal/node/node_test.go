package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbgc"
	"dbgc/internal/faultnet"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

// testFrame is one small simulated frame (16-beam sensor) and its bit
// sequence, built once.
var testFrame = sync.OnceValues(func() (dbgc.PointCloud, []byte) {
	scene, err := lidar.NewScene(lidar.Road, 1)
	if err != nil {
		panic(err)
	}
	pc := lidar.VLP16().Simulate(scene, 1)
	blob, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(0.02))
	if err != nil {
		panic(err)
	}
	return pc, blob
})

var laneBox = dbgc.AABB{Min: dbgc.Point{X: -10, Y: -4, Z: -3}, Max: dbgc.Point{X: 30, Y: 4, Z: 3}}

// openNode opens cfg on a loopback port (and a fresh directory unless one
// is given), serves it, and closes it gracefully when the test ends.
func openNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.ServerConfig.Logf == nil {
		cfg.ServerConfig.Logf = t.Logf
	}
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve()
	t.Cleanup(func() { closeNode(t, n) })
	return n
}

func closeNode(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

func dial(t *testing.T, n *Node, o reliable.Options) *reliable.Client {
	t.Helper()
	addr := n.Addr()
	o.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
	o.Logf = t.Logf
	cli, err := reliable.NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// viaBin is a cloud as the .bin layout (float32) carries it.
func viaBin(t *testing.T, pc dbgc.PointCloud) dbgc.PointCloud {
	t.Helper()
	out, err := lidar.ReadBin(bytes.NewReader(encodeRaw(pc)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func inBox(pc dbgc.PointCloud, box dbgc.AABB) dbgc.PointCloud {
	var out dbgc.PointCloud
	for _, p := range pc {
		if box.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

func sameMultiset(a, b dbgc.PointCloud) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, dbgc.Point.Compare)
	slices.SortFunc(b, dbgc.Point.Compare)
	return slices.Equal(a, b)
}

// TestOpenValidatesConfig: the combinations Open refuses are refused before
// anything touches the disk, and the ones it accepts open and close cleanly.
// A primary configured with nothing but its follower's address acks a frame
// through it: a zero SyncTimeout takes the default, not a zero budget.
func TestOpenValidatesConfig(t *testing.T) {
	const dead = "127.0.0.1:1" // a sender keeps redialing; nothing needs to answer
	to := func(addr string) replica.SenderConfig { return replica.SenderConfig{Addr: addr} }
	live := openNode(t, Config{Follower: true})
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"primary", Config{SenderConfig: to(dead)}, ""},
		{"primary with zero SyncTimeout acks", Config{SenderConfig: to(live.Addr())}, ""},
		{"primary and follower", Config{SenderConfig: to(dead), Follower: true}, "mutually exclusive"},
		{"follower", Config{Follower: true}, ""},
		{"follower promoted at start", Config{Follower: true, Promote: true}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Listen, cfg.Dir = "127.0.0.1:0", filepath.Join(t.TempDir(), "shards")
			cfg.ServerConfig.Logf = t.Logf
			n, err := Open(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				if cfg.Addr == live.Addr() {
					go n.Serve()
					cli := dial(t, n, reliable.Options{Tenant: "acme", FrameRetries: 1})
					if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}); err != nil {
						t.Fatal(err)
					}
					if err := cli.Close(); err != nil {
						t.Errorf("a primary with a zero SyncTimeout did not ack through a live follower: %v", err)
					}
				}
				closeNode(t, n)
				return
			}
			if err == nil {
				closeNode(t, n)
				t.Fatalf("accepted, want an error naming %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name %q", err, tc.wantErr)
			}
			if _, serr := os.Stat(cfg.Dir); !os.IsNotExist(serr) {
				t.Errorf("a refused config created %s", cfg.Dir)
			}
		})
	}
}

// TestIngestQueryRoundTrip sends one frame and reads a region of it back,
// verified at ingest or not: the answer is the box filter of the full
// decode, and what is stored is what was sent.
func TestIngestQueryRoundTrip(t *testing.T) {
	_, blob := testFrame()
	full, err := dbgc.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := viaBin(t, inBox(full, laneBox))
	// "compressed" is the node as it runs by default; the name is the one
	// this cell has carried since there were other storage modes.
	for _, mode := range []string{"compressed", "verify"} {
		t.Run(mode, func(t *testing.T) {
			n := openNode(t, Config{Verify: mode == "verify", Limits: dbgc.DefaultDecodeLimits()})
			cli := dial(t, n, reliable.Options{Tenant: "acme"})
			if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 7, Payload: blob}); err != nil {
				t.Fatal(err)
			}
			res, err := cli.Query(netproto.Query{Seq: 7, Box: laneBox})
			if err != nil {
				t.Fatal(err)
			}
			got, err := lidar.ReadBin(bytes.NewReader(res.Payload))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !sameMultiset(got, want) {
				t.Errorf("query answered %d points, the box filter of the full decode has %d", len(got), len(want))
			}
			if miss, err := cli.Query(netproto.Query{Seq: 8, Box: laneBox}); err != nil || len(miss.Payload) != 0 {
				t.Errorf("query of a frame never sent: %d bytes, %v", len(miss.Payload), err)
			}
			if err := cli.Close(); err != nil {
				t.Fatal(err)
			}
			if snap := n.Snapshot(); snap.Acked != 1 || snap.Nacked != 0 || snap.OpenShards != 1 {
				t.Errorf("snapshot %+v, want one ack, no nack, one open shard", snap.MetricsSnapshot)
			}
			closeNode(t, n)
			st, err := store.Open(filepath.Join(n.cfg.Dir, "acme.db"))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if payload, kind, err := st.Get(7); err != nil || kind != store.KindCompressed || !bytes.Equal(payload, blob) {
				t.Errorf("stored kind %d, %d bytes, %v; want the %d bytes sent, as B", kind, len(payload), err, len(blob))
			}
		})
	}
}

// ingestOne sends payload as frame 3 of tenant acme to a node opened with
// cfg, asks for the lane box, and closes both ends. It returns how the send
// ended, the query's answer, and the tenant's shard reopened cold — in which
// no record may sit under a key with the top bit set, where an earlier node
// filed a frame's damaged sections.
func ingestOne(t *testing.T, cfg Config, payload []byte) (sendErr error, answer dbgc.PointCloud, st *store.Store) {
	t.Helper()
	n := openNode(t, cfg)
	cli := dial(t, n, reliable.Options{Tenant: "acme", FrameRetries: 1})
	if sendErr = cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 3, Payload: payload}); sendErr == nil {
		sendErr = cli.Flush()
	}
	res, err := cli.Query(netproto.Query{Seq: 3, Box: laneBox})
	if err != nil {
		t.Fatal(err)
	}
	if answer, err = lidar.ReadBin(bytes.NewReader(res.Payload)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	closeNode(t, n)
	if st, err = store.Open(filepath.Join(n.cfg.Dir, "acme.db")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, seq := range st.Seqs() {
		if seq != 3 {
			t.Errorf("a record under key %#x", seq)
		}
	}
	return sendErr, answer, st
}

// wantStored holds frame 3 of st to kind and payload, byte for byte.
func wantStored(t *testing.T, st *store.Store, kind byte, payload []byte) {
	t.Helper()
	if got, k, err := st.Get(3); err != nil || k != kind || !bytes.Equal(got, payload) {
		t.Errorf("frame 3: kind %d, %d bytes, %v; want kind %d and the %d bytes sent", k, len(got), err, kind, len(payload))
	}
}

// TestPartialFrameStoredAndQuarantined: a frame with one section damaged at
// its source. A plain node acks it, keeps every byte under its own sequence
// number and answers a query from the sections that still decode, logging
// each one that does not; a verifying node nacks it and quarantines it
// whole — after a decode that opened no shard.
func TestPartialFrameStoredAndQuarantined(t *testing.T) {
	_, blob := testFrame()
	damaged := bytes.Clone(blob)
	damaged[len(damaged)-1] ^= 0xff // the tail of the last section's payload
	salvaged, reports, err := dbgc.DecompressPartial(damaged, dbgc.DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, r := range reports {
		if r.Err != nil {
			lost++
		}
	}
	want := viaBin(t, inBox(salvaged, laneBox))
	if lost == 0 || len(want) == 0 {
		t.Fatalf("the flipped byte damaged %d sections and left %d points in the box: not a partial frame", lost, len(want))
	}

	t.Run("stored", func(t *testing.T) {
		var mu sync.Mutex
		logged := 0
		cfg := Config{Limits: dbgc.DefaultDecodeLimits()}
		cfg.ServerConfig.Logf = func(format string, args ...any) {
			t.Logf(format, args...)
			if strings.Contains(format, "section damaged") {
				mu.Lock()
				logged++
				mu.Unlock()
			}
		}
		sendErr, answer, st := ingestOne(t, cfg, damaged)
		if sendErr != nil {
			t.Fatalf("a frame damaged at its source must be acked: %v", sendErr)
		}
		if !sameMultiset(answer, want) {
			t.Errorf("query answered %d points, the box filter of the salvaged sections has %d", len(answer), len(want))
		}
		if logged != lost {
			t.Errorf("%d lost sections logged, %d lost", logged, lost)
		}
		wantStored(t, st, store.KindCompressed, damaged)
	})
	t.Run("verify", func(t *testing.T) {
		n := openNode(t, Config{Verify: true})
		err := n.handle("acme", netproto.Message{Kind: netproto.KindCompressed, Seq: 3, Payload: damaged})
		if !errors.Is(err, reliable.ErrBadFrame) || n.Snapshot().OpenShards != 0 {
			t.Errorf("refusal %v with %d shards open; want a bad frame and the shard never opened", err, n.Snapshot().OpenShards)
		}
		sendErr, answer, st := ingestOne(t, Config{Verify: true}, damaged)
		if !errors.Is(sendErr, reliable.ErrFrameRejected) {
			t.Fatalf("send ended with %v, want ErrFrameRejected", sendErr)
		}
		if len(answer) != 0 {
			t.Errorf("a quarantined frame answered a query with %d points", len(answer))
		}
		wantStored(t, st, store.KindQuarantined, damaged)
	})
}

// TestRetiredDialectQuarantined: a frame in a retired container — the v3
// and v4 vectors internal/core keeps, which no query could read — is nacked
// and quarantined whole, with dbgc.ErrRetiredDialect as the logged reason,
// by a plain node as by a verifying one.
func TestRetiredDialectQuarantined(t *testing.T) {
	for _, file := range []string{"city-sector-shards8.dbgc", "city-sector-blockpack.dbgc"} {
		blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, verify := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/verify=%v", file, verify), func(t *testing.T) {
				var mu sync.Mutex
				var reasons []string
				cfg := Config{Verify: verify}
				cfg.ServerConfig.Logf = func(format string, args ...any) {
					line := fmt.Sprintf(format, args...)
					t.Log(line)
					if strings.Contains(line, ": quarantined ") {
						mu.Lock()
						reasons = append(reasons, line)
						mu.Unlock()
					}
				}
				sendErr, answer, st := ingestOne(t, cfg, blob)
				if !errors.Is(sendErr, reliable.ErrFrameRejected) {
					t.Fatalf("send ended with %v, want ErrFrameRejected", sendErr)
				}
				if len(answer) != 0 {
					t.Errorf("a quarantined frame answered a query with %d points", len(answer))
				}
				wantStored(t, st, store.KindQuarantined, blob)
				for _, r := range reasons {
					if !strings.Contains(r, dbgc.ErrRetiredDialect.Error()) {
						t.Errorf("quarantine logged %q, want it to name %q", r, dbgc.ErrRetiredDialect)
					}
				}
				if len(reasons) == 0 {
					t.Error("no quarantine logged")
				}
			})
		}
	}
}

// TestFrameOverLimits: a frame of more points than Limits allow is nacked
// and quarantined by a verifying node; a plain node acks and stores it, and
// refuses it when it is read — no salvage for a frame refused for its size.
func TestFrameOverLimits(t *testing.T) {
	_, blob := testFrame()
	limits := dbgc.DecodeLimits{MaxPoints: 1000}
	for _, verify := range []bool{false, true} {
		t.Run(fmt.Sprintf("verify=%v", verify), func(t *testing.T) {
			sendErr, answer, st := ingestOne(t, Config{Verify: verify, Limits: limits}, blob)
			if rejected := errors.Is(sendErr, reliable.ErrFrameRejected); rejected != verify || (!verify && sendErr != nil) {
				t.Fatalf("send ended with %v", sendErr)
			}
			if len(answer) != 0 {
				t.Errorf("query answered %d points of a frame over the limit", len(answer))
			}
			kind := store.KindCompressed
			if verify {
				kind = store.KindQuarantined
			}
			wantStored(t, st, kind, blob)
		})
	}
}

// sendCorrupt writes one data frame whose payload was damaged in flight
// (the header checksum holds, the payload's does not) and returns the
// server's answer.
func sendCorrupt(t *testing.T, n *Node, seq uint64, payload []byte) netproto.Message {
	t.Helper()
	return sendCorruptKind(t, n, netproto.KindCompressed, seq, payload)
}

func sendCorruptKind(t *testing.T, n *Node, kind byte, seq uint64, payload []byte) netproto.Message {
	t.Helper()
	var wire bytes.Buffer
	if err := netproto.Write(&wire, netproto.Message{Kind: kind, Seq: seq, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	wire.Bytes()[wire.Len()-1] ^= 0xff
	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := netproto.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCorruptRetransmitNeverShadows: a frame that fails its wire checksum
// is quarantined under its sequence number — unless a good record already
// holds that number; and a good frame arriving later replaces a quarantined
// one.
func TestCorruptRetransmitNeverShadows(t *testing.T) {
	n := openNode(t, Config{})
	good := []byte("the frame as the sensor sent it")
	send := func(seq uint64) {
		t.Helper()
		cli := dial(t, n, reliable.Options{}) // no hello: the default tenant, like sendCorrupt
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: good}); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(seq uint64) (string, byte) {
		t.Helper()
		st, err := n.shards.Acquire(reliable.DefaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		defer n.shards.Release(reliable.DefaultTenant)
		payload, kind, err := st.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		return string(payload), kind
	}

	send(5)
	if resp := sendCorrupt(t, n, 5, good); resp.Kind != netproto.KindNack {
		t.Fatalf("corrupt retransmit answered with kind %d, want a nack", resp.Kind)
	}
	if payload, kind := stored(5); kind != store.KindCompressed || payload != string(good) {
		t.Errorf("after a corrupt retransmit frame 5 is kind %d %q", kind, payload)
	}

	if resp := sendCorrupt(t, n, 6, good); resp.Kind != netproto.KindNack {
		t.Fatalf("corrupt frame answered with kind %d, want a nack", resp.Kind)
	}
	if _, kind := stored(6); kind != store.KindQuarantined {
		t.Errorf("corrupt first copy of frame 6 stored as kind %d, want quarantined", kind)
	}
	if _, err := n.query(reliable.DefaultTenant, netproto.Query{Seq: 6, Box: laneBox}); err == nil {
		t.Error("a quarantined frame answered a query")
	}
	send(6)
	if payload, kind := stored(6); kind != store.KindCompressed || payload != string(good) {
		t.Errorf("after the good retransmit frame 6 is kind %d %q", kind, payload)
	}

	// The retired wire kind 2 is a kind the session does not know: nacked,
	// the session kept, nothing stored and nothing quarantined.
	cli := dial(t, n, reliable.Options{FrameRetries: 1})
	err := cli.Send(netproto.Message{Kind: 2, Seq: 9, Payload: good})
	if err == nil {
		err = cli.Flush()
	}
	if !errors.Is(err, reliable.ErrFrameRejected) || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("a frame of wire kind 2 ended with %v, want it rejected as an unknown kind", err)
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 10, Payload: good}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil || cli.Stats().Reconnects != 1 {
		t.Errorf("the session did not survive the refusal: %v, %+v", err, cli.Stats())
	}
	if payload, kind := stored(10); kind != store.KindCompressed || payload != string(good) {
		t.Errorf("frame 10, sent after the refusal, is kind %d %q", kind, payload)
	}
	st, err := n.shards.Acquire(reliable.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	defer n.shards.Release(reliable.DefaultTenant)
	if _, found := st.Kind(9); found {
		t.Error("a frame of wire kind 2 left a record")
	}
	if q := n.Snapshot().Quarantined; q != 2 {
		t.Errorf("%d quarantine events counted, want 2", q)
	}
}

// openPair opens a follower and a primary replicating to it.
func openPair(t *testing.T) (primary, follower *Node) {
	t.Helper()
	follower = openNode(t, Config{Follower: true})
	primary = openNode(t, Config{
		SenderConfig: replica.SenderConfig{Addr: follower.Addr(), Poll: 2 * time.Millisecond},
		ReplLagMax:   32 << 20,
	})
	return primary, follower
}

// TestReplicatedPairSurvivesOnFollower: every frame a replicated
// primary acked is byte-identical in the follower's directory after a cold
// reopen — the ack meant two disks.
func TestReplicatedPairSurvivesOnFollower(t *testing.T) {
	primary, follower := openPair(t)
	payload := func(tenant string, seq uint64) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%s/%d ", tenant, seq)), 50)
	}
	acked := map[string][]uint64{}
	for _, tenant := range []string{"acme", "globex"} {
		cli := dial(t, primary, reliable.Options{Tenant: tenant, OnAck: func(seq uint64) { acked[tenant] = append(acked[tenant], seq) }})
		for seq := uint64(1); seq <= 12; seq++ {
			if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: payload(tenant, seq)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if st := primary.Health().Evaluate(); st.Status != "ok" {
		t.Errorf("primary of a caught-up pair reports %+v", st)
	}
	if snap := follower.Snapshot(); snap.Follower == nil || snap.Follower.Records < 24 || snap.Repl != nil {
		t.Errorf("follower snapshot %+v, want 24 applied records and no sender", snap.Follower)
	}
	// Steady state never reads a payload back: every record went out from the
	// slice its handler gave Append.
	if snap := primary.Snapshot(); snap.Repl == nil || snap.Repl.FromMemory != 24 || snap.Repl.FromDisk != 0 {
		t.Errorf("primary snapshot %+v, want 24 records shipped from memory and none from disk", snap.Repl)
	}
	// A record of the retired kind 2, as a shard written by an earlier node
	// may hold: it replicates and reopens like any other, and a query
	// refuses it by name.
	const retired, retiredKind = 99, 2
	st, err := primary.shards.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	err = st.Put(retired, retiredKind, payload("acme", retired))
	primary.shards.Release("acme")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the kind-2 record on the follower", func() bool { return follower.Snapshot().Follower.Records == 25 })
	if _, err := primary.query("acme", netproto.Query{Seq: retired, Box: laneBox}); err == nil || !strings.Contains(err.Error(), "unknown stored kind 2") {
		t.Errorf("query of a kind-2 record: %v", err)
	}
	closeNode(t, primary)
	closeNode(t, follower)

	for tenant, seqs := range acked {
		if len(seqs) != 12 {
			t.Errorf("%s: %d acks, want 12", tenant, len(seqs))
		}
		st, err := store.Open(filepath.Join(follower.cfg.Dir, tenant+".db"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if got, kind, err := st.Get(seq); err != nil || kind != store.KindCompressed || !bytes.Equal(got, payload(tenant, seq)) {
				t.Errorf("%s frame %d on the follower: kind %d, %d bytes, %v", tenant, seq, kind, len(got), err)
			}
		}
		if got, kind, err := st.Get(retired); tenant == "acme" && (err != nil || kind != retiredKind || !bytes.Equal(got, payload(tenant, retired))) {
			t.Errorf("the kind-2 record on the follower: kind %d, %d bytes, %v", kind, len(got), err)
		}
		st.Close()
	}
}

// heldSync is a shard file whose fsync waits until hold is closed.
type heldSync struct {
	store.File
	hold <-chan struct{}
}

func (f heldSync) Sync() error {
	<-f.hold
	return f.File.Sync()
}

// TestSyncAckWaitsForTheLaterFsync: the two fsyncs of a replicated ack
// run side by side because Append hands the record to the sender, not because
// of how the goroutines happen to be scheduled. Hold the primary's fsync and
// the follower still gets the record, makes it durable and acks it; hold the
// follower's and the primary still commits. Either way the client's ack waits
// for the one that is held.
func TestSyncAckWaitsForTheLaterFsync(t *testing.T) {
	for _, held := range []string{"primary", "follower"} {
		t.Run(held+" fsync held", func(t *testing.T) {
			hold := make(chan struct{})
			release := sync.OnceFunc(func() { close(hold) })
			openHeld := func(path string) (store.File, error) {
				f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					return nil, err
				}
				return heldSync{faultnet.NewDisk(f, 0, faultnet.DiskConfig{}), hold}, nil
			}
			fcfg := Config{Follower: true}
			var pcfg Config
			if held == "primary" {
				pcfg.OpenFile = openHeld
			} else {
				fcfg.OpenFile = openHeld
			}
			follower := openNode(t, fcfg)
			pcfg.SenderConfig = replica.SenderConfig{Addr: follower.Addr()}
			primary := openNode(t, pcfg)
			defer release() // before the nodes' final fsyncs

			acked := false
			cli := dial(t, primary, reliable.Options{Tenant: "acme", OnAck: func(uint64) { acked = true }})
			if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("frame")}); err != nil {
				t.Fatal(err)
			}
			holds := func(n *Node) bool {
				st, err := n.shards.Acquire("acme")
				if err != nil {
					return false
				}
				defer n.shards.Release("acme")
				got, _, err := st.Get(1)
				return err == nil && string(got) == "frame"
			}
			waitFor(t, "the record in both stores", func() bool { return holds(primary) && holds(follower) })
			st, err := primary.shards.Acquire("acme")
			if err != nil {
				t.Fatal(err)
			}
			end := st.End()
			primary.shards.Release("acme")
			if held == "primary" {
				// The follower's half is done while the primary's fsync hangs.
				if err := primary.sender.WaitDurable("acme", end, 5*time.Second); err != nil {
					t.Fatalf("follower durability with the primary's fsync held: %v", err)
				}
			} else {
				if err := primary.sender.WaitDurable("acme", end, 50*time.Millisecond); !errors.Is(err, replica.ErrReplTimeout) {
					t.Fatalf("follower durability with the follower's fsync held: %v, want ErrReplTimeout", err)
				}
			}
			if err := cli.Tick(50 * time.Millisecond); err != nil || acked {
				t.Fatalf("with the %s's fsync held: acked=%v, %v", held, acked, err)
			}
			release()
			if err := cli.Close(); err != nil || !acked {
				t.Fatalf("after release: acked=%v, %v", acked, err)
			}
		})
	}
}

// TestReplicationLinkPacedByTransport: the sizes the failover harness runs
// with — a sender window of 64 against a follower queue of 8 — with 64 frames
// in the primary's handlers at once. The follower never refuses its primary:
// every frame is acked inside SyncTimeout, nothing is nacked busy or rejected,
// and the watermark reaches the primary's end.
func TestReplicationLinkPacedByTransport(t *testing.T) {
	const frames, syncTimeout = 64, 5 * time.Second
	follower := openNode(t, Config{Follower: true,
		ServerConfig: reliable.ServerConfig{QueueDepth: 8}})
	primary := openNode(t, Config{
		SenderConfig: replica.SenderConfig{Addr: follower.Addr(), Poll: 2 * time.Millisecond, MaxInFlight: frames},
		SyncTimeout:  syncTimeout,
	})
	// 64 KB a frame: 4 MB is more than the link's socket buffers hold, so
	// the sender's Send does wait for the follower's reader.
	payload := func(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq)}, 64<<10) }
	errs := make([]error, frames)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := uint64(i) + 1
			errs[i] = primary.handle("acme", netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: payload(seq)})
		}()
	}
	wg.Wait()
	if took := time.Since(begin); took > syncTimeout {
		t.Errorf("%d frames took %v, over the sync timeout %v", frames, took, syncTimeout)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("frame %d: %v", i+1, err)
		}
	}
	snap := follower.Snapshot()
	if snap.BusyNacked != 0 || snap.Nacked != 0 || snap.Follower.Rejected != 0 || snap.Follower.Records != frames {
		t.Errorf("follower: %d busy nacks, %d nacks, receiver %+v; want %d records applied and none refused",
			snap.BusyNacked, snap.Nacked, *snap.Follower, frames)
	}
	st, err := primary.shards.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	end := st.End()
	primary.shards.Release("acme")
	if wm := follower.receiver.Watermark("acme"); wm != end {
		t.Errorf("follower watermark %d, the primary's shard ends at %d", wm, end)
	}
	closeNode(t, primary)
	closeNode(t, follower)
	fst, err := store.Open(filepath.Join(follower.cfg.Dir, "acme.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	for seq := uint64(1); seq <= frames; seq++ {
		if got, kind, err := fst.Get(seq); err != nil || kind != store.KindCompressed || !bytes.Equal(got, payload(seq)) {
			t.Errorf("frame %d on the follower: kind %d, %d bytes, %v", seq, kind, len(got), err)
		}
	}
}

// TestCorruptReplicationRecordLeavesNoTrace: a replication record damaged on
// the link is nacked for the primary to retransmit and counted; the follower
// neither files it under the session's pseudo-tenant nor complains that it
// cannot.
func TestCorruptReplicationRecordLeavesNoTrace(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	follower := openNode(t, Config{Follower: true, ServerConfig: reliable.ServerConfig{
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}})
	rec := replica.EncodeRecord(replica.Record{Tenant: "acme", Seq: 1, Kind: store.KindCompressed, End: 10, Payload: []byte("x")})
	if resp := sendCorruptKind(t, follower, netproto.KindReplRecord, 1, rec); resp.Kind != netproto.KindNack {
		t.Fatalf("corrupt record answered with kind %d, want a nack", resp.Kind)
	}
	if snap := follower.Snapshot(); snap.Quarantined != 1 || snap.Follower.Rejected != 0 {
		t.Errorf("%d quarantine events, receiver %+v; want the event counted and nothing handed to the receiver", snap.Quarantined, *snap.Follower)
	}
	if tenants, err := follower.shards.Tenants(); err != nil || len(tenants) != 0 {
		t.Errorf("shards after a corrupt record: %v, %v", tenants, err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "quarantine") {
			t.Errorf("logged %q", line)
		}
	}
}

// TestFollowerRefusesClientsUntilPromoted drives the NotReady gate and
// Promote over a real connection.
func TestFollowerRefusesClientsUntilPromoted(t *testing.T) {
	follower := openNode(t, Config{Follower: true})
	frame := netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}
	cli := dial(t, follower, reliable.Options{Tenant: "acme", AckTimeout: 500 * time.Millisecond, BusyRetries: 2, MaxStalls: 3})
	if err := cli.Send(frame); err == nil {
		if err := cli.Close(); err == nil {
			t.Fatal("unpromoted follower accepted a client frame")
		}
	}
	if st := follower.Health().Evaluate(); st.Status != "ok" || st.Detail["role"] != "follower" {
		t.Errorf("standby follower reports %+v", st)
	}

	if epoch, err := follower.Promote(); err != nil || epoch != 1 {
		t.Fatalf("promote: epoch %d, %v", epoch, err)
	}
	cli = dial(t, follower, reliable.Options{Tenant: "acme"})
	if err := cli.Send(frame); err != nil {
		t.Fatalf("promoted follower refused a client frame: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if st := follower.Health().Evaluate(); st.Detail["role"] != "primary (promoted)" {
		t.Errorf("promoted follower reports %+v", st)
	}
	if _, err := openNode(t, Config{}).Promote(); err == nil {
		t.Error("a node that is not a follower was promoted")
	}
}

// TestFencedPrimaryReportsUnhealthy: a fenced primary never acks. Once the
// follower is promoted, the deposed primary's next frame is nacked until the
// client gives up on it, the promoted node does not hold it, and /healthz
// degrades.
func TestFencedPrimaryReportsUnhealthy(t *testing.T) {
	// The deposed primary's replica sender gives a record up at the
	// follower's first "epoch fenced" refusal: no resend of it is logged.
	var resends atomic.Int32
	logf := func(format string, args ...any) {
		if strings.Contains(format, "resending") {
			resends.Add(1)
		}
		t.Logf(format, args...)
	}
	follower := openNode(t, Config{Follower: true})
	primary := openNode(t, Config{
		SenderConfig: replica.SenderConfig{Addr: follower.Addr(), Poll: 2 * time.Millisecond},
		ReplLagMax:   32 << 20,
		ServerConfig: reliable.ServerConfig{Logf: logf},
	})
	var mu sync.Mutex
	var acked []uint64
	cli := dial(t, primary, reliable.Options{Tenant: "acme", FrameRetries: 2, OnAck: func(seq uint64) {
		mu.Lock()
		acked = append(acked, seq)
		mu.Unlock()
	}})
	send := func(seq uint64) error {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("x")}); err != nil {
			return err
		}
		return cli.Flush()
	}
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	if st := primary.Health().Evaluate(); st.Status != "ok" {
		t.Fatalf("primary before the promotion reports %+v", st)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := send(2); !errors.Is(err, reliable.ErrFrameRejected) {
		t.Errorf("frame 2, sent to the deposed primary, ended with %v; want ErrFrameRejected", err)
	}
	mu.Lock()
	if len(acked) != 1 || acked[0] != 1 {
		t.Errorf("acks %v, want frame 1 only", acked)
	}
	mu.Unlock()
	st, err := follower.shards.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = st.Get(2)
	follower.shards.Release("acme")
	if !errors.Is(err, store.ErrNotFound) {
		t.Errorf("the promoted node's frame 2: %v, want it never stored", err)
	}
	health := primary.Health().Evaluate()
	if health.Status != "degraded" || len(health.Reasons) != 1 || !strings.Contains(health.Reasons[0], "fenced") {
		t.Errorf("fenced primary reports %+v", health)
	}
	if n := resends.Load(); n > 1 {
		t.Errorf("the primary's sender resent a fenced record %d times before it stopped", n)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetransmitsAppendOnce: while the follower is unreachable every frame
// is stored and nacked after SyncTimeout, and the client retransmits it; the
// retransmits append nothing. Once the follower is up the frames are acked,
// and each disk holds one record per frame, shadowed copies included.
func TestRetransmitsAppendOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	followerAddr := ln.Addr().String()
	ln.Close() // nothing listens there until the follower opens
	primary := openNode(t, Config{
		SenderConfig: replica.SenderConfig{Addr: followerAddr, Poll: 2 * time.Millisecond},
		SyncTimeout:  50 * time.Millisecond,
	})
	var mu sync.Mutex
	acked := map[uint64]bool{}
	cli := dial(t, primary, reliable.Options{Tenant: "acme", FrameRetries: 1000, OnAck: func(seq uint64) {
		mu.Lock()
		acked[seq] = true
		mu.Unlock()
	}})
	payload := func(seq uint64) []byte { return bytes.Repeat([]byte(fmt.Sprintf("frame %d ", seq)), 100) }
	for seq := uint64(1); seq <= 2; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: payload(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	for cli.Stats().Resent < 6 {
		if err := cli.Tick(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	follower, err := Open(Config{Listen: followerAddr, Dir: t.TempDir(), Follower: true, ServerConfig: reliable.ServerConfig{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	go follower.Serve()
	t.Cleanup(func() { closeNode(t, follower) })
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if !acked[1] || !acked[2] {
		t.Errorf("acks %v, want frames 1 and 2", acked)
	}
	mu.Unlock()
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	closeNode(t, primary) // before the follower, whose drain waits for the link
	closeNode(t, follower)
	for name, n := range map[string]*Node{"primary": primary, "follower": follower} {
		st, err := store.Open(filepath.Join(n.cfg.Dir, "acme.db"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.ReadSince(0, 0)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Errorf("%s: %d records after %d retransmits, want one a frame", name, len(recs), cli.Stats().Resent)
		}
		for _, rec := range recs {
			if !bytes.Equal(rec.Payload, payload(rec.Seq)) {
				t.Errorf("%s: frame %d holds other bytes", name, rec.Seq)
			}
		}
	}
}

// failingSync is a shard file whose next fails fsyncs fail. covered is the
// file's size when the last fsync that succeeded began: what it made durable.
type failingSync struct {
	store.File
	fails, covered *atomic.Int64
}

func (f failingSync) Sync() error {
	if f.fails.Add(-1) >= 0 {
		return errors.New("injected fsync failure")
	}
	size, err := f.File.Size()
	if err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.covered.Store(size)
	return nil
}

// openFailingSync opens a node whose shard files are failingSync.
func openFailingSync(t *testing.T, fails, covered *atomic.Int64) *Node {
	return openNode(t, Config{OpenFile: func(path string) (store.File, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return failingSync{faultnet.NewDisk(f, 0, faultnet.DiskConfig{}), fails, covered}, nil
	}})
}

// TestFsyncFailureNacksAndDegrades: through the OpenFile hook, a disk whose
// fsync fails costs the frame its ack and turns the store probe red.
func TestFsyncFailureNacksAndDegrades(t *testing.T) {
	var fails, covered atomic.Int64
	n := openFailingSync(t, &fails, &covered)
	cli := dial(t, n, reliable.Options{Tenant: "acme", FrameRetries: 1})
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	fails.Store(math.MaxInt64)
	err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 2, Payload: []byte("y")})
	if err == nil {
		err = cli.Flush()
	}
	if !errors.Is(err, reliable.ErrFrameRejected) {
		t.Fatalf("frame on a disk that cannot fsync: %v, want ErrFrameRejected", err)
	}
	st := n.Health().Evaluate()
	if st.Status != "degraded" || !strings.Contains(st.Detail["store"], "fsync failing") {
		t.Errorf("health %+v, want a failing store probe", st)
	}
	if snap := n.Snapshot(); snap.StoreSyncErrors == 0 || snap.Acked != 1 {
		t.Errorf("snapshot %+v, want fsync errors counted and one ack", snap.MetricsSnapshot)
	}
	fails.Store(0) // let the shutdown's final fsync through
	if err := cli.Close(); err != nil {
		t.Errorf("client close after the rejected frame: %v", err)
	}
}

// TestRetransmitAfterFailedFsyncIsWrittenAgain: a frame whose fsync failed
// is nacked, and its retransmit is appended afresh — the failed fsync may
// have dropped the first copy's pages, and the next fsync that succeeds need
// not write them — and acked only once a successful fsync covered the copy.
func TestRetransmitAfterFailedFsyncIsWrittenAgain(t *testing.T) {
	var fails, covered, coveredAtAck atomic.Int64
	fails.Store(1)
	n := openFailingSync(t, &fails, &covered)
	cli := dial(t, n, reliable.Options{Tenant: "acme", FrameRetries: 4, OnAck: func(uint64) {
		coveredAtAck.Store(covered.Load())
	}})
	payload := []byte("frame one")
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatalf("retransmit after one failed fsync: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	resent := cli.Stats().Resent
	closeNode(t, n)
	st, err := store.Open(filepath.Join(n.cfg.Dir, "acme.db"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.ReadSince(0, 0)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resent == 0 || len(recs) != 2 {
		t.Fatalf("%d records after %d retransmits, want the failed copy and a fresh one", len(recs), resent)
	}
	if !bytes.Equal(recs[1].Payload, payload) {
		t.Errorf("the fresh copy holds %q", recs[1].Payload)
	}
	if got := coveredAtAck.Load(); got < recs[1].End {
		t.Errorf("acked with %d bytes fsynced, want the fresh copy's end %d", got, recs[1].End)
	}
}

// TestDefaultAckSurvivesCrash: a node told nothing but where to listen and
// store acks a frame only once it is on the disk. Its shard sits on a
// faultnet disk that, on Crash, keeps a seeded prefix of the unsynced
// writes and tears the next; reopened cold, the shard holds every acked
// frame byte for byte, and each decodes.
func TestDefaultAckSurvivesCrash(t *testing.T) {
	_, blob := testFrame()
	const frames = 6
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var mu sync.Mutex
			var disks []*faultnet.Disk
			dir := t.TempDir()
			n, err := Open(Config{Listen: "127.0.0.1:0", Dir: dir, OpenFile: func(path string) (store.File, error) {
				f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
				if err != nil {
					return nil, err
				}
				d := faultnet.NewDisk(f, 0, faultnet.DiskConfig{Seed: seed, TearOnCrash: true, FlipOnTear: true})
				mu.Lock()
				disks = append(disks, d)
				mu.Unlock()
				return d, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			go n.Serve()
			var acked []uint64
			cli := dial(t, n, reliable.Options{Tenant: "acme", OnAck: func(seq uint64) { acked = append(acked, seq) }})
			for seq := uint64(1); seq <= frames; seq++ {
				if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: blob}); err != nil {
					t.Fatal(err)
				}
			}
			if err := cli.Flush(); err != nil {
				t.Fatal(err)
			}
			// Power loss with the node still up, then the process dies:
			// nothing after the acks gets to sync.
			mu.Lock()
			for _, d := range disks {
				if _, _, err := d.Crash(); err != nil {
					t.Fatal(err)
				}
			}
			mu.Unlock()
			if err := cli.Close(); err != nil {
				t.Fatal(err)
			}
			n.Abort() // its final fsync fails against the crashed disks

			if len(acked) != frames {
				t.Fatalf("%d of %d frames acked", len(acked), frames)
			}
			st, err := store.Open(filepath.Join(dir, "acme.db"))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for _, seq := range acked {
				payload, kind, err := st.Get(seq)
				if err != nil || kind != store.KindCompressed || !bytes.Equal(payload, blob) {
					t.Errorf("acked frame %d after the crash: kind %d, %d bytes, %v; want the %d bytes sent", seq, kind, len(payload), err, len(blob))
					continue
				}
				if _, err := dbgc.Decompress(payload); err != nil {
					t.Errorf("acked frame %d after the crash: %v", seq, err)
				}
			}
		})
	}
}

// TestCloseIsSafeAndIdempotent: Close on a node that never opened anything,
// on one whose Open failed half way, and twice on a running one.
func TestCloseIsSafeAndIdempotent(t *testing.T) {
	if err := new(Node).Close(context.Background()); err != nil {
		t.Errorf("close of an empty node: %v", err)
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dir := t.TempDir()
	// Shards, group, receiver are up when the listener fails to bind.
	if n, err := Open(Config{Listen: taken.Addr().String(), Dir: dir, Follower: true}); err == nil {
		closeNode(t, n)
		t.Fatal("opened on an address already in use")
	}

	n, err := Open(Config{Listen: "127.0.0.1:0", Dir: dir, Follower: true})
	if err != nil {
		t.Fatalf("reopening the directory of a failed Open: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- n.Serve() }()
	closeNode(t, n)
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after Close", err)
	}
	if err := n.Close(context.Background()); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", n.Addr(), time.Second); err == nil {
		t.Error("a closed node still accepts connections")
	}
}
