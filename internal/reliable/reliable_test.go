package reliable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbgc/internal/faultnet"
	"dbgc/internal/netproto"
	"dbgc/internal/store"
)

// testPayload builds a deterministic pseudo-random payload for frame seq.
func testPayload(seq uint64, size int) []byte {
	rng := rand.New(rand.NewSource(int64(seq) + 1))
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// startServer runs a Server storing frames into a fresh store and returns
// the address, the store, and a shutdown func.
func startServer(t *testing.T, cfg ServerConfig) (string, *store.Store, *Server) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "frames.db"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Handle == nil {
		cfg.Handle = func(_ string, m netproto.Message) error {
			return st.Put(m.Seq, store.KindCompressed, m.Payload)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
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
		st.Close()
	})
	return ln.Addr().String(), st, srv
}

func tcpDial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestEndToEndFaultInjection is the acceptance test: 50 frames over a link
// that drops connections, tears writes, and flips bits, all at >=1% rates,
// must arrive intact.
func TestEndToEndFaultInjection(t *testing.T) {
	addr, st, _ := startServer(t, ServerConfig{ReadTimeout: 2 * time.Second})
	inj := faultnet.New(faultnet.Config{
		Seed:        1,
		FlipProb:    0.02,
		DropProb:    0.015,
		PartialProb: 0.05,
		MaxDelay:    200 * time.Microsecond,
	})
	cli, err := NewClient(Options{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(c), nil
		},
		MaxInFlight: 4,
		AckTimeout:  300 * time.Millisecond,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		MaxStalls:   200,
		Seed:        2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 50
	payloads := make([][]byte, frames)
	for seq := 0; seq < frames; seq++ {
		payloads[seq] = testPayload(uint64(seq), 1024+seq*37)
		if err := cli.Send(netproto.Message{
			Kind: netproto.KindCompressed, Seq: uint64(seq), Payload: payloads[seq],
		}); err != nil {
			t.Fatalf("Send(%d): %v", seq, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Len() != frames {
		t.Fatalf("store holds %d frames, want %d", st.Len(), frames)
	}
	for seq := 0; seq < frames; seq++ {
		got, kind, err := st.Get(uint64(seq))
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if kind != store.KindCompressed || !bytes.Equal(got, payloads[seq]) {
			t.Fatalf("frame %d corrupted in transit: kind=%d len=%d want %d", seq, kind, len(got), len(payloads[seq]))
		}
	}
	stats := inj.Stats()
	t.Logf("injected faults: %+v; client stats: %+v", stats, cli.Stats())
	if stats.Drops == 0 || stats.Flips == 0 || stats.Partials == 0 {
		t.Fatalf("link was not flaky enough to prove anything: %+v", stats)
	}
	if cs := cli.Stats(); cs.Acked != frames {
		t.Fatalf("acked %d frames, want %d", cs.Acked, frames)
	}
}

// TestBadFrameQuarantined: a frame the handler rejects as undecodable is
// nacked and quarantined without taking down the session or the other
// frames.
func TestBadFrameQuarantined(t *testing.T) {
	var mu sync.Mutex
	var quarantined []uint64
	st, err := store.Open(filepath.Join(t.TempDir(), "frames.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if bytes.HasPrefix(m.Payload, []byte("BAD")) {
				return fmt.Errorf("%w: not a dbgc stream", ErrBadFrame)
			}
			return st.Put(m.Seq, store.KindCompressed, m.Payload)
		},
		Quarantine: func(_ string, m netproto.Message, reason string) {
			mu.Lock()
			quarantined = append(quarantined, m.Seq)
			mu.Unlock()
		},
		Logf: t.Logf,
	}
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cli, err := NewClient(Options{
		Dial:         tcpDial(ln.Addr().String()),
		MaxInFlight:  16,
		FrameRetries: 2,
		AckTimeout:   2 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// On loopback the three rejections of frame 1 can all come back while
	// Send(1) is still draining responses, so the give-up error may surface
	// from any call from there on; the client stays usable past it, and
	// frame 2 must still go out. Frames are answered as their handlers
	// return, so the give-up of frame 1 says nothing about frame 2: the
	// client is flushed again until every other frame has its ack.
	var sendErr error
	note := func(err error) {
		if sendErr == nil {
			sendErr = err
		}
	}
	for seq, payload := range [][]byte{[]byte("good-0"), []byte("BAD-1"), []byte("good-2")} {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: uint64(seq), Payload: payload}); err != nil {
			note(err)
			if !errors.Is(err, ErrFrameRejected) {
				break
			}
		}
	}
	for err := cli.Flush(); err != nil; err = cli.Flush() {
		if !errors.Is(err, ErrFrameRejected) {
			t.Fatal(err)
		}
		note(err)
	}
	if sendErr == nil || !strings.Contains(sendErr.Error(), "frame 1") {
		t.Fatalf("want permanent rejection of frame 1, got %v", sendErr)
	}
	if st := cli.Stats(); st.Acked != 2 {
		t.Fatalf("acked %d frames, want frames 0 and 2", st.Acked)
	}
	for _, seq := range []uint64{0, 2} {
		if _, _, err := st.Get(seq); err != nil {
			t.Fatalf("good frame %d lost: %v", seq, err)
		}
	}
	if _, _, err := st.Get(1); err != store.ErrNotFound {
		t.Fatalf("bad frame 1 should not be stored, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(quarantined) == 0 || quarantined[0] != 1 {
		t.Fatalf("quarantine callback saw %v, want frame 1", quarantined)
	}
}

// TestHandlerPanicIsolated: a panicking decode costs one nack; the
// retransmit succeeds on the same connection.
func TestHandlerPanicIsolated(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[uint64]int)
	stored := make(map[uint64][]byte)
	cfg := ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			mu.Lock()
			seen[m.Seq]++
			first := seen[m.Seq] == 1
			mu.Unlock()
			if m.Seq == 2 && first {
				panic("decoder exploded on hostile payload")
			}
			mu.Lock()
			stored[m.Seq] = append([]byte(nil), m.Payload...)
			mu.Unlock()
			return nil
		},
		Logf: t.Logf,
	}
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	cli, err := NewClient(Options{Dial: tcpDial(ln.Addr().String()), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 5; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: testPayload(seq, 100)}); err != nil {
			t.Fatalf("Send(%d): %v", seq, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stored) != 5 {
		t.Fatalf("stored %d frames, want 5", len(stored))
	}
	if seen[2] < 2 {
		t.Fatalf("frame 2 seen %d times, want a retransmit after the panic", seen[2])
	}
	// The panic must not have torn down the connection: one dial total.
	if r := cli.Stats().Reconnects; r != 1 {
		t.Fatalf("reconnects = %d, want 1 (panic should not kill the session)", r)
	}
}

// TestTornConnectionIsolated: a client that dies mid-payload neither
// corrupts the store nor disturbs other connections.
func TestTornConnectionIsolated(t *testing.T) {
	addr, st, _ := startServer(t, ServerConfig{ReadTimeout: time.Second})

	// A well-behaved session in progress on another connection.
	cli, err := NewClient(Options{Dial: tcpDial(addr), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 100, Payload: testPayload(100, 256)}); err != nil {
		t.Fatal(err)
	}

	// A rogue connection: writes a frame header promising 10 KB, delivers
	// 3 KB, and vanishes.
	rogue, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netproto.Write(&buf, netproto.Message{Kind: netproto.KindCompressed, Seq: 7, Payload: make([]byte, 10240)}); err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.Write(buf.Bytes()[:buf.Len()-7000]); err != nil {
		t.Fatal(err)
	}
	rogue.Close()

	// The surviving client keeps working on its own connection.
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 101, Payload: testPayload(101, 256)}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	// And a brand-new connection is still served.
	late, err := NewClient(Options{Dial: tcpDial(addr), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 102, Payload: testPayload(102, 64)}); err != nil {
		t.Fatal(err)
	}
	if err := late.Close(); err != nil {
		t.Fatal(err)
	}
	// Store consistency: the three good frames, nothing from the torn one.
	if st.Len() != 3 {
		t.Fatalf("store holds %d frames, want 3", st.Len())
	}
	if _, _, err := st.Get(7); err != store.ErrNotFound {
		t.Fatalf("torn frame leaked into the store: %v", err)
	}
}

// TestReconnectBackoffToLateServer: the client survives the server not
// being there yet, reconnecting with backoff until it shows up.
func TestReconnectBackoffToLateServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is now dead; the server will come back later

	var mu sync.Mutex
	stored := make(map[uint64][]byte)
	srvReady := make(chan *Server, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Error(err)
			close(srvReady)
			return
		}
		srv := NewServer(ServerConfig{
			Handle: func(_ string, m netproto.Message) error {
				mu.Lock()
				stored[m.Seq] = append([]byte(nil), m.Payload...)
				mu.Unlock()
				return nil
			},
			Logf: t.Logf,
		})
		srvReady <- srv
		srv.Serve(ln2)
	}()

	cli, err := NewClient(Options{
		Dial:        tcpDial(addr),
		AckTimeout:  time.Second,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		MaxStalls:   50,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("patience")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv, ok := <-srvReady
	if ok {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	mu.Lock()
	defer mu.Unlock()
	if string(stored[1]) != "patience" {
		t.Fatalf("frame lost across the outage: %q", stored[1])
	}
}

// TestQueryRoundTrip: queries flow through the reliable client, with ack
// traffic interleaved.
func TestQueryRoundTrip(t *testing.T) {
	addr, _, _ := startServer(t, ServerConfig{
		Query: func(_ string, q netproto.Query) ([]byte, error) {
			return []byte(fmt.Sprintf("result-for-%d", q.Seq)), nil
		},
	})
	cli, err := NewClient(Options{Dial: tcpDial(addr), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 3; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: testPayload(seq, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cli.Query(netproto.Query{Seq: 2})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if string(resp.Payload) != "result-for-2" {
		t.Fatalf("query result = %q", resp.Payload)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdown: Shutdown waits for in-flight sessions, then
// refuses new connections.
func TestGracefulShutdown(t *testing.T) {
	addr, st, srv := startServer(t, ServerConfig{ReadTimeout: 5 * time.Second})
	cli, err := NewClient(Options{Dial: tcpDial(addr), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 5; seq++ {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: testPayload(seq, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st.Len() != 5 {
		t.Fatalf("store holds %d frames after drain, want 5", st.Len())
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestFinalRefusalEndsTheFrame: a handler error wrapping ErrFinal is nacked
// as a permanent refusal, which the client honours at once — the frame is
// given up with ErrFrameRejected and never resent, whatever FrameRetries
// allows — and the client stays usable.
func TestFinalRefusalEndsTheFrame(t *testing.T) {
	var handled atomic.Int32
	addr, _, _ := startServer(t, ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if bytes.HasPrefix(m.Payload, []byte("FENCED")) {
				handled.Add(1)
				return fmt.Errorf("%w: epoch fenced", ErrFinal)
			}
			return nil
		},
	})
	cli, err := NewClient(Options{Dial: tcpDial(addr), FrameRetries: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The nack surfaces from Send when it has arrived by then, else from
	// Flush.
	err = cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 1, Payload: []byte("FENCED-1")})
	if err == nil {
		err = cli.Flush()
	}
	if !errors.Is(err, ErrFrameRejected) || !strings.Contains(err.Error(), "epoch fenced") {
		t.Fatalf("the refused frame ended with %v, want ErrFrameRejected naming the refusal", err)
	}
	if st := cli.Stats(); st.Resent != 0 || handled.Load() != 1 {
		t.Fatalf("a final refusal was resent %d times and handled %d times, want 0 and 1", st.Resent, handled.Load())
	}
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 2, Payload: []byte("good-2")}); err != nil {
		t.Fatalf("send after the refusal: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("close after the refusal: %v", err)
	}
}

// TestFrameRejectedSentinel: a frame nacked past its retry budget surfaces
// ErrFrameRejected, and the client stays usable for the rest of the stream.
func TestFrameRejectedSentinel(t *testing.T) {
	addr, _, _ := startServer(t, ServerConfig{
		Handle: func(_ string, m netproto.Message) error {
			if bytes.HasPrefix(m.Payload, []byte("BAD")) {
				return errors.New("undecodable")
			}
			return nil
		},
	})

	cli, err := NewClient(Options{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", addr) },
		AckTimeout:   2 * time.Second,
		MaxInFlight:  4,
		FrameRetries: 1,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rejected error
	for seq, payload := range [][]byte{[]byte("good-0"), []byte("BAD-1")} {
		if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: uint64(seq), Payload: payload}); err != nil {
			rejected = err
			break
		}
	}
	if rejected == nil {
		rejected = cli.Flush()
	}
	if !errors.Is(rejected, ErrFrameRejected) {
		t.Fatalf("want ErrFrameRejected, got %v", rejected)
	}
	// The bad frame was dropped from the window; later traffic still flows.
	if err := cli.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: 2, Payload: []byte("good-2")}); err != nil {
		t.Fatalf("send after rejection: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("close after rejection: %v", err)
	}
}
