// Package reliable layers fault tolerance on top of the netproto framing:
// a Client that acknowledges every frame, bounds the in-flight window,
// retransmits on nack or timeout, and reconnects with exponential backoff
// and jitter; and a Server whose per-connection Sessions isolate frame
// failures (a corrupt or undecodable frame is nacked and quarantined, not
// fatal), recover from handler panics, enforce read/write deadlines, and
// drain gracefully on shutdown.
//
// Delivery semantics: a frame is acknowledged only after the server-side
// handler accepted it, so every acked frame was handled at least once.
// Retransmits can deliver the same sequence number more than once (an ack
// can be lost on the wire); handlers must therefore be idempotent per
// sequence number, which the frame store's last-Put-wins shadowing
// provides.
package reliable

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dbgc/internal/netproto"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("reliable: client closed")

var errAckTimeout = errors.New("reliable: timed out waiting for ack")

// ErrFrameRejected marks a frame the server nacked more than FrameRetries
// times — the frame itself is undeliverable, but the connection and every
// other frame are fine. Callers streaming many frames can skip the bad one
// with errors.Is(err, ErrFrameRejected) and carry on.
var ErrFrameRejected = errors.New("reliable: frame rejected")

// ErrAdmission marks a hard admission refusal: the server rejected this
// client's hello outright (e.g. an invalid tenant name). Unlike a busy
// refusal, retrying will not help.
var ErrAdmission = errors.New("reliable: admission refused")

// Options configures a Client. The zero value of every field except Dial
// (or Addrs+DialTo) gets a sensible default.
type Options struct {
	// Dial opens a connection to the server. Called again, after
	// backoff, whenever the current connection fails. Required unless
	// Addrs and DialTo are set.
	Dial func() (net.Conn, error)
	// Addrs lists the servers of a replicated deployment in preference
	// order (primary first). The client dials Addrs[0] and fails over to
	// the next address — with the usual jittered backoff — whenever a
	// connection attempt fails, the handshake is refused busy, or the
	// current connection dies. Once an address yields an admitted
	// connection the client sticks to it until it fails again. Requires
	// DialTo; mutually exclusive with Dial.
	Addrs []string
	// DialTo opens a connection to one address from Addrs. Required when
	// Addrs is set.
	DialTo func(addr string) (net.Conn, error)
	// OnAck, when set, is called with the sequence number of every frame
	// the server acknowledges (exactly once per Send). It runs on the
	// goroutine driving Send/Flush and must not call back into the
	// client.
	OnAck func(seq uint64)
	// MaxInFlight bounds the number of unacknowledged frames (default
	// 8). Send blocks once the window is full.
	MaxInFlight int
	// AckTimeout is how long to wait for any ack before declaring the
	// connection dead and reconnecting (default 5s).
	AckTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 10s).
	WriteTimeout time.Duration
	// BaseBackoff and MaxBackoff bound the exponential reconnect
	// backoff (defaults 50ms and 3s); each sleep is jittered to
	// [0.5,1.5)× the nominal value.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxStalls is the number of consecutive connection failures
	// without a single ack before giving up (default 12).
	MaxStalls int
	// FrameRetries is how many nacks a single frame survives before the
	// client reports it undeliverable (default 64).
	FrameRetries int
	// Tenant, when non-empty, is announced with a hello frame on every
	// (re)connection; the server keys storage and admission by it.
	Tenant string
	// BusyRetries is how many busy (backpressure) refusals a single frame
	// tolerates before the client gives up on it (default 256). Busy
	// refusals mean the server is alive but loaded, so the budget is far
	// larger than FrameRetries and each refusal backs off before the
	// retransmit.
	BusyRetries int
	// Seed feeds the jitter source; 0 means a time-independent fixed
	// seed (fine for production, deterministic for tests).
	Seed int64
	// Logf, when set, receives retry/reconnect diagnostics.
	Logf func(format string, args ...any)
}

// Stats counts client activity since construction.
type Stats struct {
	Sent       int // frames handed to Send
	Acked      int // frames acknowledged by the server
	Nacked     int // negative acknowledgements received
	BusyNacked int // backpressure refusals (server busy, frame retried)
	Resent     int // retransmitted frames (nack, busy retry, or reconnect)
	Reconnects int // successful dials, including the first
	Failovers  int // address rotations in multi-address mode
}

// Client sends frames reliably over a flaky link. It is not safe for
// concurrent use: like the sensor pipeline it serves, it is a single
// producer loop.
type Client struct {
	cfg  Options
	rng  *rand.Rand
	conn net.Conn
	// events carries acks/nacks (and read errors) from the reader
	// goroutine of the current connection; replaced on reconnect.
	events  chan event
	pending []*pframe // sent but unacked, in send order
	bySeq   map[uint64]*pframe
	stalls  int // consecutive connection failures since the last ack
	// busyUntil is the earliest time the server asked us to retry after a
	// busy refusal; sends and reconnects honor it before transmitting.
	busyUntil time.Time
	// addrIdx is the Addrs entry the client is currently using (multi-
	// address mode only).
	addrIdx int
	lastErr error
	stats   Stats
	closed  bool
	// abort is closed by Abort, the one method another goroutine may call.
	abort     chan struct{}
	abortOnce sync.Once
}

type pframe struct {
	msg     netproto.Message
	retries int
	busy    int  // consecutive busy refusals awaiting a backed-off retry
	writes  int  // wire transmissions so far; >1 means retransmitted
	held    bool // refused busy; waiting out the backoff before resend
}

type event struct {
	msg netproto.Message
	err error
}

// NewClient builds a client; the first connection is dialed lazily on the
// first Send.
func NewClient(cfg Options) (*Client, error) {
	switch {
	case cfg.Dial == nil && len(cfg.Addrs) == 0:
		return nil, errors.New("reliable: Options.Dial (or Addrs+DialTo) is required")
	case cfg.Dial != nil && len(cfg.Addrs) > 0:
		return nil, errors.New("reliable: Options.Dial and Options.Addrs are mutually exclusive")
	case len(cfg.Addrs) > 0 && cfg.DialTo == nil:
		return nil, errors.New("reliable: Options.Addrs requires Options.DialTo")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 3 * time.Second
	}
	if cfg.MaxStalls <= 0 {
		cfg.MaxStalls = 12
	}
	if cfg.FrameRetries <= 0 {
		cfg.FrameRetries = 64
	}
	if cfg.BusyRetries <= 0 {
		cfg.BusyRetries = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Client{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		bySeq: make(map[uint64]*pframe),
		abort: make(chan struct{}),
	}, nil
}

// Send queues m for reliable delivery and blocks while the in-flight
// window is full. A nil error means the frame is on its way (and will be
// retransmitted as needed), not yet that it was acked; Flush waits for
// acknowledgement. Sequence numbers must be unique among in-flight frames
// because acks are matched by Seq.
func (c *Client) Send(m netproto.Message) error {
	if c.closed {
		return ErrClosed
	}
	if _, dup := c.bySeq[m.Seq]; dup {
		return fmt.Errorf("reliable: seq %d already in flight", m.Seq)
	}
	f := &pframe{msg: m}
	c.pending = append(c.pending, f)
	c.bySeq[m.Seq] = f
	c.stats.Sent++
	if c.conn == nil {
		// reconnect transmits everything pending, including f.
		if err := c.reconnect(); err != nil {
			return err
		}
	} else {
		f.writes++
		if err := c.writeFrame(f.msg); err != nil {
			c.dropConn(err)
			if err := c.reconnect(); err != nil {
				return err
			}
		}
	}
	// Drain acks that already arrived, then block while over the window.
	if err := c.drain(); err != nil {
		return err
	}
	for len(c.pending) >= c.cfg.MaxInFlight {
		if err := c.pump(); err != nil {
			return err
		}
	}
	return nil
}

// Connect dials now, with the usual backoff, if the client holds no
// connection, instead of at the next Send — for a caller whose Dial hook
// learns something the first frame depends on (the replication sender's
// cursors come from its handshake).
func (c *Client) Connect() error {
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	return c.reconnect()
}

// Abort makes the reconnect loop — under way or yet to come — return
// ErrClosed at once instead of dialing and backing off. It alone is safe to
// call from another goroutine: the way out for an owner that shuts down
// while the peer is unreachable. Frames whose connection then fails stay
// unacknowledged.
func (c *Client) Abort() { c.abortOnce.Do(func() { close(c.abort) }) }

// sleep waits d out, or until Abort is called.
func (c *Client) sleep(d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.abort:
	}
}

// Flush blocks until every sent frame has been acknowledged.
func (c *Client) Flush() error {
	for len(c.pending) > 0 {
		if err := c.pump(); err != nil {
			return err
		}
	}
	return nil
}

// Tick makes bounded progress without requiring the window to drain: it
// processes every response that has already arrived, retransmits any
// busy-held frames whose backoff expired, and otherwise waits up to d for
// one more response. A quiet wait is not an error. Replication senders use
// it to pump acks (and fire OnAck) while no new frames are being sent.
func (c *Client) Tick(d time.Duration) error { return c.TickOr(d, nil) }

// TickOr is Tick cut short when wake delivers: the wait of a caller that has
// new frames announced to it while acks are still owed.
func (c *Client) TickOr(d time.Duration, wake <-chan struct{}) error {
	if c.closed {
		return ErrClosed
	}
	if err := c.drain(); err != nil {
		return err
	}
	if len(c.pending) == 0 {
		return nil
	}
	if c.conn == nil {
		return c.reconnect()
	}
	if c.heldCount() > 0 {
		return c.resendHeld()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case ev, ok := <-c.events:
		if !ok {
			c.dropConn(c.lastErr)
			return c.reconnect()
		}
		return c.handleEvent(ev)
	case <-wake:
		return nil
	case <-timer.C:
		return nil
	}
}

// InFlight reports the number of sent-but-unacknowledged frames.
func (c *Client) InFlight() int { return len(c.pending) }

// pump makes one unit of progress toward draining pending frames: process
// buffered events, retransmit busy-held frames once their backoff expires,
// or block for the next ack. Held frames take priority over waiting —
// the server will not ack them until we resend.
func (c *Client) pump() error {
	if err := c.drain(); err != nil {
		return err
	}
	if len(c.pending) == 0 {
		return nil // drain emptied the window; nothing left to wait for
	}
	if c.heldCount() > 0 {
		return c.resendHeld()
	}
	return c.awaitEvent()
}

func (c *Client) heldCount() int {
	n := 0
	for _, f := range c.pending {
		if f.held {
			n++
		}
	}
	return n
}

// resendHeld waits out the server's retry-after hint and retransmits every
// busy-held frame in send order.
func (c *Client) resendHeld() error {
	if wait := time.Until(c.busyUntil); wait > 0 {
		c.sleep(wait)
	}
	// Events may have arrived during the sleep (e.g. acks for frames that
	// were queued server-side); process them so we don't resend acked
	// frames.
	if err := c.drain(); err != nil {
		return err
	}
	if c.conn == nil {
		return c.reconnect()
	}
	for _, f := range c.pending {
		if !f.held {
			continue
		}
		f.held = false
		c.stats.Resent++
		f.writes++
		if err := c.writeFrame(f.msg); err != nil {
			c.dropConn(err)
			return c.reconnect()
		}
	}
	return nil
}

// Query sends a spatial query and waits for its result, retrying over
// reconnects and tolerating interleaved non-result frames (stray acks).
// All pending frames are flushed first so the result cannot be confused
// with ack traffic for unacked frames.
func (c *Client) Query(q netproto.Query) (netproto.Message, error) {
	if err := c.Flush(); err != nil {
		return netproto.Message{}, err
	}
	msg := netproto.Message{Kind: netproto.KindQuery, Seq: q.Seq, Payload: netproto.EncodeQuery(q)}
	for attempt := 0; attempt <= c.cfg.FrameRetries; attempt++ {
		if c.conn == nil {
			if err := c.reconnect(); err != nil {
				return netproto.Message{}, err
			}
		}
		if err := c.writeFrame(msg); err != nil {
			c.dropConn(err)
			continue
		}
		deadline := time.Now().Add(c.cfg.AckTimeout)
		for {
			remain := time.Until(deadline)
			if remain <= 0 {
				c.dropConn(errAckTimeout)
				break
			}
			timer := time.NewTimer(remain)
			select {
			case ev, ok := <-c.events:
				timer.Stop()
				if !ok || ev.err != nil {
					c.dropConn(ev.err)
				} else if ev.msg.Kind == netproto.KindQueryResult {
					return ev.msg, nil
				}
				// Anything else (stray ack/nack) is skipped.
			case <-timer.C:
				c.dropConn(errAckTimeout)
			}
			if c.conn == nil {
				break
			}
		}
	}
	return netproto.Message{}, fmt.Errorf("reliable: query failed after %d attempts: %w", c.cfg.FrameRetries+1, c.lastErr)
}

// Close flushes outstanding frames, tells the server goodbye, and releases
// the connection. The returned error is the flush outcome: nil means every
// frame sent was acknowledged.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	flushErr := c.Flush()
	c.closed = true
	if c.conn != nil {
		_ = c.writeFrame(netproto.Message{Kind: netproto.KindBye, Seq: uint64(c.stats.Sent)})
		c.dropConn(nil)
	}
	return flushErr
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats { return c.stats }

// awaitEvent blocks for the next ack/nack (up to AckTimeout) and processes
// it; a timeout or connection error triggers reconnect-and-retransmit.
func (c *Client) awaitEvent() error {
	if c.conn == nil {
		return c.reconnect() // an earlier reconnect gave up; no reader to wait for
	}
	timer := time.NewTimer(c.cfg.AckTimeout)
	defer timer.Stop()
	select {
	case ev, ok := <-c.events:
		if !ok {
			c.dropConn(c.lastErr)
			return c.reconnect()
		}
		return c.handleEvent(ev)
	case <-timer.C:
		c.dropConn(errAckTimeout)
		return c.reconnect()
	}
}

// drain processes without blocking whatever the reader has already
// delivered.
func (c *Client) drain() error {
	for {
		select {
		case ev, ok := <-c.events:
			if !ok {
				c.dropConn(c.lastErr)
				return c.reconnect()
			}
			if err := c.handleEvent(ev); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (c *Client) handleEvent(ev event) error {
	if ev.err != nil {
		c.dropConn(ev.err)
		return c.reconnect()
	}
	switch ev.msg.Kind {
	case netproto.KindAck, netproto.KindReplAck:
		// ReplAck is the replication dialect's ack: same window
		// semantics, distinct kind so follower responses are
		// self-describing on the wire.
		c.ack(ev.msg.Seq)
	case netproto.KindNack:
		if retryAfter, reason, busy := netproto.BusyHint(ev.msg.Payload); busy {
			return c.handleBusy(ev.msg.Seq, retryAfter, reason)
		}
		f, ok := c.bySeq[ev.msg.Seq]
		if !ok {
			return nil // late nack for a frame that was since acked
		}
		c.stats.Nacked++
		if reason, final := netproto.FinalHint(ev.msg.Payload); final {
			c.forget(ev.msg.Seq)
			return fmt.Errorf("%w: frame %d refused for good (%s)", ErrFrameRejected, ev.msg.Seq, reason)
		}
		f.retries++
		if f.retries > c.cfg.FrameRetries {
			// Remove the frame so the client stays usable for the rest of
			// the stream if the caller opts to continue past the error.
			c.forget(ev.msg.Seq)
			return fmt.Errorf("%w: frame %d rejected %d times (%s), giving up",
				ErrFrameRejected, ev.msg.Seq, f.retries, ev.msg.Payload)
		}
		c.cfg.Logf("reliable: frame %d nacked (%s), resending (try %d)", ev.msg.Seq, ev.msg.Payload, f.retries)
		c.stats.Resent++
		f.writes++
		if err := c.writeFrame(f.msg); err != nil {
			c.dropConn(err)
			return c.reconnect()
		}
	default:
		// Stray frame (e.g. a late query result): ignore.
	}
	return nil
}

// handleBusy reacts to a backpressure refusal: hold the frame, extend the
// retry-after window with capped exponential growth and jitter, and — since
// a busy server is very much alive — reset the stall counter. The frame is
// retransmitted by resendHeld once the window passes.
func (c *Client) handleBusy(seq uint64, retryAfter time.Duration, reason string) error {
	c.stats.BusyNacked++
	c.stalls = 0
	f, ok := c.bySeq[seq]
	if !ok {
		// A busy refusal of the hello (or a frame acked in the
		// meantime): remember the hint so reconnect waits it out.
		c.extendBusy(retryAfter)
		return nil
	}
	f.held = true
	f.busy++
	if f.busy > c.cfg.BusyRetries {
		c.forget(seq)
		return fmt.Errorf("%w: frame %d refused busy %d times (%s), giving up",
			ErrFrameRejected, seq, f.busy, reason)
	}
	shift := f.busy - 1
	if shift > 6 {
		shift = 6
	}
	c.extendBusy(retryAfter << shift)
	c.cfg.Logf("reliable: frame %d refused busy (%s), retry after %v (refusal %d)",
		seq, reason, retryAfter, f.busy)
	if len(c.cfg.Addrs) > 1 && f.busy%4 == 0 {
		// A node that refuses frame after frame busy (an unpromoted
		// follower does, indefinitely) is not going to drain this window.
		// Tenant-announcing clients rotate on the refused hello; default-
		// tenant sessions have no hello, so rotate here instead of
		// camping on the retry hint. resendHeld reconnects on the next
		// address and retransmits everything pending.
		c.cfg.Logf("reliable: %d straight busy refusals from %s, rotating", f.busy, c.CurrentAddr())
		c.dropConn(nil)
		c.rotate()
	}
	return nil
}

// extendBusy pushes busyUntil out by a jittered d, never pulling it in.
func (c *Client) extendBusy(d time.Duration) {
	if d <= 0 {
		d = c.cfg.BaseBackoff
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	d = time.Duration(float64(d) * (0.5 + c.rng.Float64()))
	until := time.Now().Add(d)
	if until.After(c.busyUntil) {
		c.busyUntil = until
	}
}

func (c *Client) ack(seq uint64) {
	if !c.forget(seq) {
		return // duplicate ack after a retransmit
	}
	c.stats.Acked++
	c.stalls = 0 // acks are the progress signal
	if c.cfg.OnAck != nil {
		c.cfg.OnAck(seq)
	}
}

// forget removes a frame from the in-flight window without counting it
// acknowledged — the shared bookkeeping of real acks and gave-up frames.
func (c *Client) forget(seq uint64) bool {
	f, ok := c.bySeq[seq]
	if !ok {
		return false
	}
	delete(c.bySeq, seq)
	for i, p := range c.pending {
		if p == f {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	return true
}

func (c *Client) writeFrame(m netproto.Message) error {
	if c.cfg.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	return netproto.Write(c.conn, m)
}

// dropConn tears down the current connection and drains its reader.
func (c *Client) dropConn(reason error) {
	if reason != nil {
		c.lastErr = reason
	}
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	// The reader unblocks on the closed conn, sends its error, and
	// closes the channel; consume the leftovers so it can exit. Busy
	// hints among the discards still inform the reconnect wait.
	for ev := range c.events {
		if ev.err == nil && ev.msg.Kind == netproto.KindNack {
			if retryAfter, _, busy := netproto.BusyHint(ev.msg.Payload); busy {
				c.extendBusy(retryAfter)
			}
		}
	}
	c.events = nil
}

// reconnect dials (with backoff and jitter) until a connection accepts a
// retransmit of every pending frame, or the stall budget runs out. When a
// tenant is configured, each connection starts with a hello handshake; a
// busy refusal of the hello backs off and redials, a hard refusal is fatal.
func (c *Client) reconnect() error {
	for {
		if c.stalls >= c.cfg.MaxStalls {
			return fmt.Errorf("reliable: giving up after %d consecutive failures: %w", c.stalls, c.lastErr)
		}
		if c.stalls > 0 {
			c.sleepBackoff(c.stalls)
		}
		// Honor any outstanding retry-after hint before dialing back in.
		if wait := time.Until(c.busyUntil); wait > 0 {
			c.sleep(wait)
		}
		select {
		case <-c.abort:
			return ErrClosed
		default:
		}
		c.stalls++
		conn, err := c.dial()
		if err != nil {
			c.lastErr = err
			c.cfg.Logf("reliable: dial failed (attempt %d): %v", c.stalls, err)
			c.rotate()
			continue
		}
		c.conn = conn
		c.events = make(chan event, 2*c.cfg.MaxInFlight+8)
		go readLoop(conn, c.events)
		c.stats.Reconnects++
		if err := c.helloHandshake(); err != nil {
			if errors.Is(err, ErrAdmission) {
				return err
			}
			// Refused busy or connection died: back off and redial. In
			// multi-address mode a busy refusal usually means "not the
			// primary right now" — rotate so the next attempt finds the
			// promoted node.
			c.rotate()
			continue
		}
		// Reconnect retransmits everything, so no frame stays held.
		for _, f := range c.pending {
			f.held = false
		}
		resent := true
		for _, f := range c.pending {
			// A frame already on the wire once counts as a
			// retransmit; the first write of a fresh frame (e.g.
			// on the initial dial) does not.
			if f.writes > 0 {
				c.stats.Resent++
			}
			f.writes++
			if err := c.writeFrame(f.msg); err != nil {
				c.cfg.Logf("reliable: retransmit of frame %d failed: %v", f.msg.Seq, err)
				c.dropConn(err)
				resent = false
				break
			}
		}
		if resent {
			return nil
		}
	}
}

// helloHandshake announces the configured tenant on a fresh connection and
// waits for the server's verdict. nil means admitted (or no tenant set);
// ErrAdmission means a hard refusal; any other error means this connection
// is unusable (the caller redials after backoff).
func (c *Client) helloHandshake() error {
	if c.cfg.Tenant == "" {
		return nil
	}
	if err := c.writeFrame(netproto.Hello(c.cfg.Tenant)); err != nil {
		c.dropConn(err)
		return err
	}
	timer := time.NewTimer(c.cfg.AckTimeout)
	defer timer.Stop()
	for {
		select {
		case ev, ok := <-c.events:
			if !ok || ev.err != nil {
				c.dropConn(ev.err)
				return errAckTimeout
			}
			if ev.msg.Seq != netproto.HelloSeq {
				continue // stray frame from a previous life; skip
			}
			switch ev.msg.Kind {
			case netproto.KindAck:
				return nil
			case netproto.KindNack:
				if retryAfter, reason, busy := netproto.BusyHint(ev.msg.Payload); busy {
					c.stats.BusyNacked++
					c.extendBusy(retryAfter)
					c.cfg.Logf("reliable: hello refused busy (%s), retry after %v", reason, retryAfter)
					c.dropConn(nil)
					return errAckTimeout
				}
				if string(ev.msg.Payload) == nackChecksum {
					// The hello was damaged in flight — a fault of the
					// link, not a verdict on the tenant. The framing held,
					// so say it again on the same connection.
					if err := c.writeFrame(netproto.Hello(c.cfg.Tenant)); err != nil {
						c.dropConn(err)
						return err
					}
					continue
				}
				c.dropConn(nil)
				return fmt.Errorf("%w: tenant %q: %s", ErrAdmission, c.cfg.Tenant, ev.msg.Payload)
			}
		case <-timer.C:
			c.dropConn(errAckTimeout)
			return errAckTimeout
		}
	}
}

// dial opens a connection via Dial, or to the current preferred address in
// multi-address mode.
func (c *Client) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial()
	}
	return c.cfg.DialTo(c.cfg.Addrs[c.addrIdx])
}

// rotate advances to the next configured address after a failed connection
// attempt. With zero or one address it is a no-op.
func (c *Client) rotate() {
	if len(c.cfg.Addrs) < 2 {
		return
	}
	c.addrIdx = (c.addrIdx + 1) % len(c.cfg.Addrs)
	c.stats.Failovers++
	c.cfg.Logf("reliable: failing over to %s", c.cfg.Addrs[c.addrIdx])
}

// CurrentAddr reports the address the client is currently pointed at
// (empty in single-Dial mode).
func (c *Client) CurrentAddr() string {
	if len(c.cfg.Addrs) == 0 {
		return ""
	}
	return c.cfg.Addrs[c.addrIdx]
}

func (c *Client) sleepBackoff(attempt int) {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := c.cfg.BaseBackoff << shift
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d = time.Duration(float64(d) * (0.5 + c.rng.Float64()))
	c.sleep(d)
}

// readLoop forwards server responses to the event channel until the
// connection dies, then reports the error and closes the channel.
func readLoop(conn net.Conn, ch chan event) {
	defer close(ch)
	for {
		m, err := netproto.Read(conn)
		if errors.Is(err, netproto.ErrChecksum) {
			// A corrupt response with intact framing: drop it and
			// keep reading — the affected frame retransmits on
			// ack timeout.
			continue
		}
		if err != nil {
			ch <- event{err: err}
			return
		}
		ch <- event{msg: m}
	}
}
