package reliable

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dbgc/internal/netproto"
)

func startTenantServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

// rawHello dials and sends a hello, returning the server's verdict frame.
func rawHello(t *testing.T, addr, tenant string) (net.Conn, netproto.Message) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := netproto.Write(conn, netproto.Hello(tenant)); err != nil {
		t.Fatal(err)
	}
	m, err := netproto.Read(conn)
	if err != nil {
		conn.Close()
		t.Fatalf("reading hello verdict: %v", err)
	}
	return conn, m
}

// TestTenantHelloRouting: the handler sees the hello-announced tenant, and
// hello-less legacy connections land on the default tenant.
func TestTenantHelloRouting(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	_, addr := startTenantServer(t, ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			mu.Lock()
			seen[tenant]++
			mu.Unlock()
			return nil
		},
		Logf: t.Logf,
	})
	for _, tenant := range []string{"acme", ""} {
		cli, err := NewClient(Options{
			Dial:   func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Tenant: tenant,
			Logf:   t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(0); seq < 3; seq++ {
			if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("pts")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["acme"] != 3 || seen[DefaultTenant] != 3 {
		t.Fatalf("per-tenant frame counts = %v, want acme:3 default:3", seen)
	}
}

// TestBackpressureBusyNackConvergence: a flooding client against a slow
// handler gets busy nacks with retry hints, honors them, and still delivers
// every frame exactly within the ack contract — backpressure slows the
// client, it never loses data.
func TestBackpressureBusyNackConvergence(t *testing.T) {
	var mu sync.Mutex
	got := map[uint64]bool{}
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			time.Sleep(3 * time.Millisecond) // slow consumer
			mu.Lock()
			got[m.Seq] = true
			mu.Unlock()
			return nil
		},
		QueueDepth:   2,
		TenantBudget: 2,
		RetryAfter:   10 * time.Millisecond,
		Logf:         t.Logf,
	})
	cli, err := NewClient(Options{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Tenant:      "flood",
		MaxInFlight: 16,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	for seq := uint64(0); seq < frames; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("burst")}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("close (all frames must converge): %v", err)
	}
	mu.Lock()
	handled := len(got)
	mu.Unlock()
	if handled != frames {
		t.Fatalf("handled %d/%d frames", handled, frames)
	}
	if st := cli.Stats(); st.BusyNacked == 0 {
		t.Fatalf("flooding a depth-2 queue produced no busy nacks: %+v", st)
	} else {
		t.Logf("client stats: %+v", st)
	}
	if m := srv.Metrics().Snapshot(); m.BusyNacked == 0 {
		t.Fatalf("server counted no busy nacks: %+v", m)
	}
}

// TestAdmissionSessionLimits: per-tenant and global session caps refuse
// with a busy hint, and a freed slot readmits.
func TestAdmissionSessionLimits(t *testing.T) {
	_, addr := startTenantServer(t, ServerConfig{
		Handle:               func(string, netproto.Message) error { return nil },
		MaxSessionsPerTenant: 1,
		RetryAfter:           5 * time.Millisecond,
		Logf:                 t.Logf,
	})
	conn1, m := rawHello(t, addr, "acme")
	defer conn1.Close()
	if m.Kind != netproto.KindAck || m.Seq != netproto.HelloSeq {
		t.Fatalf("first session hello: %+v", m)
	}
	conn2, m := rawHello(t, addr, "acme")
	conn2.Close()
	if m.Kind != netproto.KindNack {
		t.Fatalf("second session for same tenant admitted: %+v", m)
	}
	if retryAfter, _, ok := netproto.BusyHint(m.Payload); !ok || retryAfter <= 0 {
		t.Fatalf("limit refusal carries no retry hint: %q", m.Payload)
	}
	// Another tenant is unaffected.
	conn3, m := rawHello(t, addr, "other")
	conn3.Close()
	if m.Kind != netproto.KindAck {
		t.Fatalf("other tenant refused: %+v", m)
	}
	// Freeing the slot readmits acme (poll: unbind is asynchronous).
	conn1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn4, m := rawHello(t, addr, "acme")
		conn4.Close()
		if m.Kind == netproto.KindAck {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionMaxTenants: the tenant cap refuses new tenants busy while
// existing tenants keep connecting.
func TestAdmissionMaxTenants(t *testing.T) {
	_, addr := startTenantServer(t, ServerConfig{
		Handle:     func(string, netproto.Message) error { return nil },
		MaxTenants: 2,
		Logf:       t.Logf,
	})
	conns := make([]net.Conn, 0, 2)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, tenant := range []string{"t1", "t2"} {
		conn, m := rawHello(t, addr, tenant)
		conns = append(conns, conn)
		if m.Kind != netproto.KindAck {
			t.Fatalf("tenant %s refused under the cap: %+v", tenant, m)
		}
	}
	conn, m := rawHello(t, addr, "t3")
	conn.Close()
	if m.Kind != netproto.KindNack {
		t.Fatalf("third tenant admitted over cap=2: %+v", m)
	}
	if _, reason, ok := netproto.BusyHint(m.Payload); !ok {
		t.Fatalf("cap refusal carries no retry hint: %q", m.Payload)
	} else {
		t.Logf("refused with: %s", reason)
	}
	// A second session for an existing tenant is still fine.
	conn, m = rawHello(t, addr, "t1")
	conn.Close()
	if m.Kind != netproto.KindAck {
		t.Fatalf("existing tenant refused while cap full: %+v", m)
	}
}

// TestMaxSessionsRefusedAtAccept: the global connection cap turns excess
// connections away before a session starts.
func TestMaxSessionsRefusedAtAccept(t *testing.T) {
	_, addr := startTenantServer(t, ServerConfig{
		Handle:      func(string, netproto.Message) error { return nil },
		MaxSessions: 1,
		Logf:        t.Logf,
	})
	conn1, m := rawHello(t, addr, "a")
	defer conn1.Close()
	if m.Kind != netproto.KindAck {
		t.Fatalf("first conn refused: %+v", m)
	}
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	m, err = netproto.Read(conn2) // refusal arrives unprompted
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	if m.Kind != netproto.KindNack || m.Seq != netproto.HelloSeq {
		t.Fatalf("over-cap conn not refused: %+v", m)
	}
	if _, _, ok := netproto.BusyHint(m.Payload); !ok {
		t.Fatalf("accept refusal carries no retry hint: %q", m.Payload)
	}
}

// TestInvalidTenantHardRefusal: a bad tenant name is a plain nack (no busy
// hint) and surfaces as ErrAdmission through the client.
func TestInvalidTenantHardRefusal(t *testing.T) {
	_, addr := startTenantServer(t, ServerConfig{
		Handle: func(string, netproto.Message) error { return nil },
		Logf:   t.Logf,
	})
	conn, m := rawHello(t, addr, "../escape")
	conn.Close()
	if m.Kind != netproto.KindNack {
		t.Fatalf("traversal tenant admitted: %+v", m)
	}
	if _, _, ok := netproto.BusyHint(m.Payload); ok {
		t.Fatalf("hard refusal must not carry a retry hint: %q", m.Payload)
	}
	cli, err := NewClient(Options{
		Dial:   func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Tenant: ".hidden",
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")})
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("Send with invalid tenant = %v, want ErrAdmission", err)
	}
}

// TestSheddingDropsNewestTenant: past the high-water mark the newest tenant
// is shed (busy-nacked, session drained) while the older tenant keeps full
// service; below the low-water mark the shed tenant is readmitted and every
// accepted frame still lands exactly once.
func TestSheddingDropsNewestTenant(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	var mu sync.Mutex
	got := map[string]map[uint64]bool{}
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			<-release
			mu.Lock()
			if got[tenant] == nil {
				got[tenant] = map[uint64]bool{}
			}
			got[tenant][m.Seq] = true
			mu.Unlock()
			return nil
		},
		ShedHighWater: 4,
		ShedLowWater:  2,
		RetryAfter:    10 * time.Millisecond,
		Logf:          t.Logf,
	})
	newCli := func(tenant string) *Client {
		cli, err := NewClient(Options{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Tenant:      tenant,
			MaxInFlight: 8,
			MaxStalls:   64,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cli
	}
	old := newCli("old-tenant")
	for seq := uint64(0); seq < 3; seq++ {
		if err := old.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("old")}); err != nil {
			t.Fatal(err)
		}
	}
	// All three are gated in the handler/queue: in-flight load is 3.
	newer := newCli("new-tenant")
	for seq := uint64(0); seq < 3; seq++ {
		if err := newer.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("new")}); err != nil {
			t.Fatal(err)
		}
	}
	// Load crossed the high-water mark (6 > 4): the newest tenant must be
	// shed. Poll the metric — shedding happens on the serving goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().Snapshot().TenantsShed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no tenant shed over high water: %+v", srv.Metrics().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unblock the handlers; load drains under the low-water mark, the shed
	// tenant is readmitted, and both streams complete losslessly.
	releaseOnce.Do(func() { close(release) })
	if err := old.Close(); err != nil {
		t.Fatalf("old tenant lost service during shed: %v", err)
	}
	for seq := uint64(3); seq < 6; seq++ {
		if err := newer.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("new")}); err != nil {
			t.Fatalf("shed tenant never readmitted: send %d: %v", seq, err)
		}
	}
	if err := newer.Close(); err != nil {
		t.Fatalf("shed tenant close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got["old-tenant"]) != 3 || len(got["new-tenant"]) != 6 {
		t.Fatalf("delivered old=%d new=%d, want 3 and 6", len(got["old-tenant"]), len(got["new-tenant"]))
	}
	m := srv.Metrics().Snapshot()
	if m.TenantsShed == 0 || m.InflightFrames != 0 {
		t.Fatalf("end state: %+v", m)
	}
}

// TestStallTimeoutCutsWedgedSession: a session whose queue never drains is
// disconnected after StallTimeout instead of pinning a slot forever.
func TestStallTimeoutCutsWedgedSession(t *testing.T) {
	release := make(chan struct{})
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(string, netproto.Message) error {
			<-release
			return nil
		},
		QueueDepth:   1,
		TenantBudget: 1,
		RetryAfter:   2 * time.Millisecond,
		StallTimeout: 40 * time.Millisecond,
		Logf:         t.Logf,
	})
	t.Cleanup(func() { close(release) }) // after Shutdown's cleanup? No: LIFO, runs first
	conn, m := rawHello(t, addr, "wedged")
	defer conn.Close()
	if m.Kind != netproto.KindAck {
		t.Fatalf("hello: %+v", m)
	}
	// Flood without honoring hints; the server must eventually hang up.
	// Responses are drained opportunistically (accepted frames won't get
	// one until the gated handler runs, so never block long on a read).
	deadline := time.Now().Add(10 * time.Second)
	seq := uint64(0)
	cut := false
	for !cut {
		if time.Now().After(deadline) {
			t.Fatal("session never cut despite permanent stall")
		}
		seq++
		if err := netproto.Write(conn, netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("x")}); err != nil {
			cut = true
			break
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		for {
			if _, err := netproto.Read(conn); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // nothing more buffered; keep flooding
				}
				cut = true // EOF/reset after the stall cut
				break
			}
		}
	}
	if got := srv.Metrics().SessionsStalled.Load(); got == 0 {
		t.Fatal("stall cut not counted")
	}
}

// TestMetricsSnapshotCounters sanity-checks a few counters end to end, per
// sequence number: the even frames are acked once each, the odd ones nacked
// until the client gives up on them — in whatever order the handlers return.
func TestMetricsSnapshotCounters(t *testing.T) {
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if m.Seq%2 == 1 {
				return fmt.Errorf("odd frames refused")
			}
			return nil
		},
		Logf: t.Logf,
	})
	var mu sync.Mutex
	acked := map[uint64]int{}
	cli, err := NewClient(Options{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Tenant:       "metrics",
		FrameRetries: 1,
		OnAck: func(seq uint64) {
			mu.Lock()
			acked[seq]++
			mu.Unlock()
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	note := func(err error) {
		t.Helper()
		if errors.Is(err, ErrFrameRejected) {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(0); seq < 4; seq++ {
		note(cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: []byte("m")}))
	}
	// A give-up ends the Flush it surfaces in; the frames still unanswered
	// need another.
	for err := cli.Flush(); err != nil; err = cli.Flush() {
		note(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if rejected != 2 || len(acked) != 2 || acked[0] != 1 || acked[2] != 1 {
		t.Fatalf("client gave up on %d frames and saw acks %v, want 2 and frames 0 and 2 once each", rejected, acked)
	}
	m := srv.Metrics().Snapshot()
	// Each odd frame is nacked on its first copy and on its one retry.
	if m.FramesIn != 6 || m.Acked != 2 || m.Nacked != 4 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SessionsOpened == 0 || m.LatencyP99Ms < 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// damageWrite passes a connection through except for one Write, whose last
// byte it flips.
type damageWrite struct {
	net.Conn
	nth int // 1-based; netproto writes a header, then a payload
}

func (d *damageWrite) Write(p []byte) (int, error) {
	if d.nth--; d.nth == 0 && len(p) > 0 {
		p = append([]byte(nil), p...)
		p[len(p)-1] ^= 0xff
	}
	return d.Conn.Write(p)
}

// TestHelloDamagedInFlightIsRetried: a hello whose payload fails the wire
// checksum is a link fault like any other frame's — the client says it
// again — not an admission refusal that ends the stream. (The failover soak
// hit this about once in a dozen runs of one seed.)
func TestHelloDamagedInFlightIsRetried(t *testing.T) {
	srv, addr := startTenantServer(t, ServerConfig{
		Handle: func(string, netproto.Message) error { return nil },
		Logf:   t.Logf,
	})
	cli, err := NewClient(Options{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &damageWrite{Conn: c, nth: 2}, nil // the hello's payload
		},
		Tenant: "acme",
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("x")}); err != nil {
		t.Fatalf("Send after a damaged hello: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cli.Stats(); st.Acked != 1 || st.Reconnects != 1 {
		t.Errorf("client %+v, want the frame acked on the first connection", st)
	}
	if m := srv.Metrics().Snapshot(); m.Acked != 1 || m.SessionsOpened != 1 {
		t.Errorf("server %+v", m)
	}
}
