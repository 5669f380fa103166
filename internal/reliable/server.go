package reliable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/netproto"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("reliable: server closed")

// ErrBadFrame marks a handler failure caused by the frame's content (it
// arrived intact but cannot be decoded). Sessions quarantine such frames;
// any other handler error (e.g. storage trouble) is nacked without
// quarantine because retrying may genuinely succeed.
var ErrBadFrame = errors.New("reliable: bad frame")

// ErrFinal marks a handler failure no retransmit can change, such as a
// replication record from a fenced epoch. The session nacks it with
// netproto.NackFinal, and a Client gives the frame up at the first such
// nack.
var ErrFinal = errors.New("reliable: refused for good")

// nackChecksum is the nack reason of a frame whose payload failed the wire
// checksum: the one refusal a client answers by sending the same bytes again,
// whatever the frame was — a hello included.
const nackChecksum = "checksum"

// errStalled ends a session whose ingest queue stayed full past the stall
// deadline without draining a single frame — a slow or wedged consumer
// should reconnect and back off rather than pin a session slot.
var errStalled = errors.New("reliable: session stalled under backpressure")

// errCloseSession signals an intentional, clean session end (admission
// refusal, shed tenant fully drained). Run maps it to a nil return.
var errCloseSession = errors.New("reliable: close session")

// ServerConfig configures Sessions. Handle is required; everything else
// defaults.
type ServerConfig struct {
	// Handle processes one data frame (KindCompressed, the only kind that
	// carries one) for a tenant. A nil return acks the frame; an error
	// nacks it. Wrap content errors in ErrBadFrame to also hand the whole
	// frame to Quarantine. Must be safe for concurrent use — a session has
	// up to QueueDepth frames in Handle together — and idempotent per
	// (tenant, sequence number): retransmits can redeliver, even while the
	// first copy is in Handle.
	Handle func(tenant string, m netproto.Message) error
	// Query, when set, answers KindQuery frames against a tenant's data;
	// the returned payload travels back as KindQueryResult. A nil Query
	// nacks queries.
	Query func(tenant string, q netproto.Query) ([]byte, error)
	// Quarantine, when set, receives client frames that failed validation
	// (wire checksum mismatch, ErrBadFrame, or a handler panic) before
	// they are nacked. Must be safe for concurrent use. Replication
	// records are only counted: the primary has the good copy and resends.
	Quarantine func(tenant string, m netproto.Message, reason string)
	// ReplHello, when set, answers KindReplHello exchanges from a
	// replication peer: it receives the hello payload and returns the
	// KindReplAck response payload, or an error to refuse (stale epoch).
	// A nil ReplHello nacks all replication traffic.
	ReplHello func(payload []byte) ([]byte, error)
	// ReplRecord, when set, applies one KindReplRecord frame (the tenant
	// is encoded inside the payload, not taken from the session). A nil
	// return acks the record with KindReplAck; an error nacks it so the
	// primary retransmits. Replication sessions bypass tenant admission
	// and budgets — there is one trusted peer — and are never refused
	// busy: a full session queue stops the session reading, so the
	// transport paces the primary. Runs concurrently, like Handle.
	ReplRecord func(m netproto.Message) error
	// NotReady, when set and returning refuse=true, turns away client
	// ingest (hellos, data frames, queries) with a busy nack carrying
	// retryAfter — the mechanism a follower uses to bounce producers to
	// the primary until it is promoted. Replication traffic is exempt.
	// Called per frame; must be cheap and safe for concurrent use.
	NotReady func() (reason string, retryAfter time.Duration, refuse bool)
	// ReadTimeout is the maximum idle time between frames before the
	// session is considered abandoned (default 60s).
	ReadTimeout time.Duration
	// WriteTimeout is the deadline for writing a response (default 10s).
	WriteTimeout time.Duration

	// Admission control. Zero values mean unlimited.
	//
	// MaxSessions caps concurrent connections server-wide; excess
	// connections are refused at accept with a busy nack.
	MaxSessions int
	// MaxTenants caps concurrently active tenants.
	MaxTenants int
	// MaxSessionsPerTenant caps concurrent sessions per tenant.
	MaxSessionsPerTenant int

	// Backpressure. QueueDepth bounds each session's ingest queue, all of
	// which may be in the handler at once (default 16); TenantBudget
	// bounds a tenant's in-flight frames across all its sessions (default
	// 64). A client frame arriving past either bound is refused with a
	// busy nack carrying RetryAfter (default 200ms) as the retry hint.
	QueueDepth   int
	TenantBudget int
	RetryAfter   time.Duration
	// StallTimeout, when positive, ends a session whose queue has been
	// refusing frames for this long without draining any — the client
	// reconnects and backs off instead of hammering a wedged session.
	StallTimeout time.Duration

	// Load shedding. When total in-flight frames exceed ShedHighWater,
	// the newest tenants are shed (drain, then refuse) until load falls
	// below ShedLowWater (default HighWater/2). Zero disables shedding.
	ShedHighWater int
	ShedLowWater  int

	// Logf, when set, receives per-session diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *ServerConfig) fillDefaults() {
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.TenantBudget <= 0 {
		cfg.TenantBudget = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 200 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Server accepts connections and runs a Session per connection.
type Server struct {
	cfg        ServerConfig
	tenants    *registry
	metrics    Metrics
	mu         sync.Mutex
	ln         net.Listener
	conns      map[net.Conn]struct{}
	wg         sync.WaitGroup
	inShutdown atomic.Bool
}

// NewServer builds a server around the given config.
func NewServer(cfg ServerConfig) *Server {
	cfg.fillDefaults()
	return &Server{cfg: cfg, tenants: newRegistry(), conns: make(map[net.Conn]struct{})}
}

// Metrics exposes the server's live counters (for /metrics endpoints and
// load harnesses).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Serve accepts connections on ln until Shutdown closes it, running each
// connection's Session on its own goroutine. A session failure never
// affects other sessions. Connections over MaxSessions are turned away
// with a busy nack before a session ever starts.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() || errors.Is(err, net.ErrClosed) {
				return ErrServerClosed
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return err
		}
		if s.cfg.MaxSessions > 0 && s.connCount() >= s.cfg.MaxSessions {
			s.metrics.SessionsRejected.Add(1)
			if !s.begin(conn, false) {
				conn.Close()
				return ErrServerClosed
			}
			go func() {
				defer s.wg.Done()
				s.refuse(conn)
			}()
			continue
		}
		if !s.begin(conn, true) {
			conn.Close()
			return ErrServerClosed
		}
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			sess := &Session{conn: conn, cfg: s.cfg, srv: s}
			if err := sess.Run(); err != nil {
				s.cfg.Logf("reliable: client %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// begin registers one connection goroutine. The wg.Add is ordered against
// Shutdown's wg.Wait through s.mu (Add must not race a Wait that observed
// a zero counter), so it returns false once shutdown has begun.
func (s *Server) begin(conn net.Conn, track bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	if track {
		s.conns[conn] = struct{}{}
	}
	s.wg.Add(1)
	return true
}

// refuse turns away a connection over the session limit: a busy nack on
// the hello sequence number tells a reliable client when to come back.
func (s *Server) refuse(conn net.Conn) {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = netproto.Write(conn, netproto.NackBusy(netproto.HelloSeq, 2*s.cfg.RetryAfter, "server session limit"))
}

// Shutdown stops accepting connections and waits for active sessions to
// drain. If ctx expires first, remaining connections are closed forcibly
// and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.inShutdown.Store(true) // under s.mu: orders against begin's wg.Add
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Session serves one connection: reads frames, queues them on the bounded
// session queue, and works the queue concurrently: every queued frame may be
// in the handler at once, sharing fsync rounds and replication round trips
// the way frames of different sessions do, and is answered when its own
// handler returns — acks leave in completion order, matched by sequence
// number. Frame-level failures (checksum, decode, handler panic) are
// isolated — nacked and quarantined — while framing-level failures (corrupt
// header, torn stream) end the session so the client can reconnect. Overload
// (queue or tenant budget full) is answered with busy nacks carrying a
// retry-after hint; a replication peer waits on the transport instead.
type Session struct {
	conn net.Conn
	cfg  ServerConfig
	srv  *Server

	tenant *tenant // nil until bound, and for a replication session
	bound  string  // tenant name after binding, "" before

	// The ingest queue, made when the session binds. A frame holds a slot
	// from the moment it is accepted until its handler has returned, so
	// len(slots) is the session's share of QueueDepth; jobs carries the
	// accepted frames to the lanes and can never be fuller than slots. A
	// lane handles one frame at a time for the rest of the session's life;
	// the reader starts one whenever more frames hold slots than lanes
	// exist: one lane for one frame at a time, QueueDepth for a full queue.
	slots   chan struct{}
	jobs    chan ingestJob
	lanes   int            // started so far; the reader goroutine's alone
	working sync.WaitGroup // the lanes
	writeMu sync.Mutex

	lastDrain atomic.Int64 // unix nanos of the last queue drain (stall detection)
}

// ingestJob carries one data frame plus its arrival time through the
// session queue.
type ingestJob struct {
	m  netproto.Message
	at time.Time
}

// Run serves the connection until the client says goodbye, disconnects, or
// the stream framing is lost. A panic anywhere in the session (including
// the dispatch path) is caught and reported as an error rather than
// crashing the server.
func (s *Session) Run() (err error) {
	s.srv.metrics.SessionsOpened.Add(1)
	s.srv.metrics.ActiveSessions.Add(1)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reliable: session panic: %v", r)
		}
		// On an error exit (torn framing, stall, panic) close the
		// connection immediately so the peer stops waiting on a dead
		// session; the drain below may be pinned by a wedged handler.
		if err != nil {
			s.conn.Close()
		}
		// Drain the queue before the clean-exit close: frames
		// accepted before a Bye still get their acks, bounded by
		// WriteTimeout if the peer is already gone.
		if s.jobs != nil {
			close(s.jobs)
			s.working.Wait()
		}
		s.conn.Close()
		s.srv.unbind(s.tenant)
		s.srv.metrics.SessionsClosed.Add(1)
		s.srv.metrics.ActiveSessions.Add(-1)
	}()
	s.lastDrain.Store(time.Now().UnixNano())
	for {
		if s.cfg.ReadTimeout > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		m, rerr := netproto.Read(s.conn)
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF), errors.Is(rerr, net.ErrClosed):
			return nil // client hung up (or drain closed us): normal end
		case errors.Is(rerr, netproto.ErrChecksum):
			// Payload corrupt but framing intact: isolate the frame
			// and keep the stream.
			s.quarantine(m, "payload checksum mismatch")
			if err := s.write(netproto.Nack(m.Seq, nackChecksum)); err != nil {
				return err
			}
			continue
		default:
			// Header corruption, torn read, version mismatch: the
			// stream position is gone; force a reconnect.
			return fmt.Errorf("reliable: reading frame: %w", rerr)
		}
		switch m.Kind {
		case netproto.KindBye:
			return nil
		case netproto.KindHello:
			if err := s.hello(m); err != nil {
				if errors.Is(err, errCloseSession) {
					return nil
				}
				return err
			}
		case netproto.KindCompressed:
			if err := s.ingest(m); err != nil {
				if errors.Is(err, errCloseSession) {
					return nil
				}
				return err
			}
		case netproto.KindReplHello:
			if err := s.replHello(m); err != nil {
				return err
			}
		case netproto.KindReplRecord:
			if err := s.ingestRepl(m); err != nil {
				return err
			}
		case netproto.KindQuery:
			if err := s.answer(m); err != nil {
				return err
			}
		default:
			// A kind from a newer client, or a retired one (2): reject
			// the frame, keep the session.
			if err := s.write(netproto.Nack(m.Seq, "unknown kind")); err != nil {
				return err
			}
		}
	}
}

// replPeer is the internal binding name of a replication session. It is
// not a valid tenant name (leading dot), so it can never collide with a
// client tenant in logs or quarantine labels.
const replPeer = ".replica"

// notReady applies the NotReady gate to one client frame: when the node
// refuses client traffic (an unpromoted follower), the frame is answered
// with a busy nack carrying the configured retry hint and the session is
// closed, so a reliable client re-dials — and, in multi-address mode,
// rotates toward the primary.
func (s *Session) notReady(seq uint64) (refused bool, err error) {
	if s.cfg.NotReady == nil {
		return false, nil
	}
	reason, retryAfter, refuse := s.cfg.NotReady()
	if !refuse {
		return false, nil
	}
	if retryAfter <= 0 {
		retryAfter = s.cfg.RetryAfter
	}
	s.srv.metrics.BusyNacked.Add(1)
	if werr := s.write(netproto.NackBusy(seq, retryAfter, reason)); werr != nil {
		return true, werr
	}
	return true, errCloseSession
}

// replHello answers a replication handshake. The handler sees the raw
// payload (epoch, mode, tenant — see internal/replica) and returns the
// response payload carried back on a KindReplAck with the same sequence
// number; refusals (stale epoch, replication disabled) travel as nacks.
func (s *Session) replHello(m netproto.Message) error {
	if s.cfg.ReplHello == nil {
		return s.write(netproto.Nack(m.Seq, "replication unsupported"))
	}
	resp, err := s.callReplHello(m.Payload)
	if err != nil {
		return s.write(netproto.Nack(m.Seq, clip(err.Error())))
	}
	return s.write(netproto.Message{Kind: netproto.KindReplAck, Seq: m.Seq, Payload: resp})
}

func (s *Session) callReplHello(payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("repl hello panic: %v", r)
		}
	}()
	return s.cfg.ReplHello(payload)
}

// bindRepl lazily sets up the ingest queue for a replication session.
// Unlike bind it skips tenant admission and budgets — the peer is a single
// trusted primary, and its backpressure is the bounded session queue.
func (s *Session) bindRepl() {
	if s.bound != "" {
		return
	}
	s.bound = replPeer
	s.makeQueue()
}

// makeQueue makes the session queue; Run's exit closes it and waits for the
// lanes.
func (s *Session) makeQueue() {
	s.slots = make(chan struct{}, s.cfg.QueueDepth)
	s.jobs = make(chan ingestJob, s.cfg.QueueDepth) // never fuller than slots, so enqueue never blocks on it
}

// lane handles queued frames one after another until the queue closes. The
// slot is free before the ack is written: the frame the ack prompts fits.
func (s *Session) lane() {
	defer s.working.Done()
	for j := range s.jobs {
		err := s.dispatch(j.m)
		<-s.slots
		s.finish(j, err)
	}
}

// enqueue hands one frame to the lanes if the queue has room, reporting
// whether it did. A full queue is answered, not waited on, unless wait is set.
func (s *Session) enqueue(m netproto.Message, wait bool) bool {
	if wait {
		s.slots <- struct{}{}
	} else {
		select {
		case s.slots <- struct{}{}:
		default:
			return false
		}
	}
	if len(s.slots) > s.lanes {
		// Without another lane one of the queued frames would wait out a
		// neighbour's fsync or replication round trip.
		s.lanes++
		s.working.Add(1)
		go s.lane()
	}
	s.jobs <- ingestJob{m: m, at: time.Now()}
	return true
}

// ingestRepl admits one replication record into the session queue. Records
// flow through the same bounded queue as client frames but bypass tenant
// budgets and the NotReady gate — replication is exactly the traffic a
// follower exists to accept — and a full queue is waited on, not refused:
// the socket fills and the primary's Send blocks, whatever its MaxInFlight.
// (A busy nack would make the one trusted peer resend into the same full
// queue.) The wait cannot deadlock against a sender that reads and writes on
// one goroutine: the acks owed, at most MaxInFlight of ~20 bytes, fit the
// socket buffer and the client's reader goroutine takes them off it.
func (s *Session) ingestRepl(m netproto.Message) error {
	if s.cfg.ReplRecord == nil {
		return s.write(netproto.Nack(m.Seq, "replication unsupported"))
	}
	s.bindRepl()
	if s.bound != replPeer {
		// A tenant-bound client smuggling repl frames: reject, keep session.
		return s.write(netproto.Nack(m.Seq, "session bound to a tenant"))
	}
	s.srv.metrics.FramesIn.Add(1)
	s.srv.metrics.ReplRecords.Add(1)
	s.srv.metrics.BytesIn.Add(uint64(len(m.Payload)))
	s.srv.noteInflight(1)
	s.enqueue(m, true)
	return nil
}

// hello binds the session to the named tenant. Rebinding after data has
// flowed is refused (stores are already keyed).
func (s *Session) hello(m netproto.Message) error {
	if refused, err := s.notReady(netproto.HelloSeq); refused {
		return err
	}
	name := string(m.Payload)
	if s.bound != "" {
		if name == s.bound {
			return s.write(netproto.Ack(netproto.HelloSeq)) // idempotent re-hello
		}
		return s.write(netproto.Nack(netproto.HelloSeq, "already bound to another tenant"))
	}
	if err := s.bind(name); err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			s.cfg.Logf("reliable: refusing %s (%s): %s", s.conn.RemoteAddr(), name, adm.reason)
			if rerr := s.write(netproto.NackBusy(netproto.HelloSeq, adm.retryAfter, adm.reason)); rerr != nil {
				return rerr
			}
			return errCloseSession // polite refusal
		}
		if rerr := s.write(netproto.Nack(netproto.HelloSeq, clip(err.Error()))); rerr != nil {
			return rerr
		}
		return errCloseSession // misconfigured client: no point serving on
	}
	return s.write(netproto.Ack(netproto.HelloSeq))
}

// bind admits the session under the given tenant name and starts the
// ingest queue.
func (s *Session) bind(name string) error {
	t, err := s.srv.admit(name)
	if err != nil {
		return err
	}
	s.tenant = t
	s.bound = name
	s.makeQueue()
	return nil
}

// ensureBound lazily binds hello-less connections to the default tenant.
func (s *Session) ensureBound(seq uint64) error {
	if s.bound != "" {
		return nil
	}
	if err := s.bind(DefaultTenant); err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			if rerr := s.write(netproto.NackBusy(seq, adm.retryAfter, adm.reason)); rerr != nil {
				return rerr
			}
			return fmt.Errorf("reliable: default-tenant admission: %s", adm.reason)
		}
		return err
	}
	return nil
}

// ingest admits one data frame into the bounded session queue, or refuses it
// with a busy nack when the session queue or the tenant budget is full.
func (s *Session) ingest(m netproto.Message) error {
	if refused, err := s.notReady(m.Seq); refused {
		return err
	}
	if err := s.ensureBound(m.Seq); err != nil {
		return err
	}
	s.srv.metrics.FramesIn.Add(1)
	s.srv.metrics.BytesIn.Add(uint64(len(m.Payload)))
	// A shedding tenant drains: queued frames finish and ack, new ones
	// are refused, and once the queue is empty the session closes so the
	// client re-dials into admission control.
	if s.tenant != nil && s.tenant.isShedding() {
		if err := s.busyNack(m.Seq, "tenant shedding"); err != nil {
			return err
		}
		if len(s.slots) == 0 {
			s.cfg.Logf("reliable: session %s (%s) shed", s.conn.RemoteAddr(), s.bound)
			return errCloseSession // drained: close now
		}
		return nil // still draining queued frames
	}
	if s.tenant != nil && !s.tenant.tryAcquire(s.cfg.TenantBudget) {
		return s.overloaded(m.Seq, "tenant queue full")
	}
	s.srv.noteInflight(1)
	if !s.enqueue(m, false) {
		if s.tenant != nil {
			s.tenant.release()
		}
		s.srv.noteInflight(-1)
		return s.overloaded(m.Seq, "session queue full")
	}
	return nil
}

// overloaded refuses one frame with a busy nack and enforces the stall
// deadline: a session that keeps arriving at a full queue without any
// handler returning is cut loose.
func (s *Session) overloaded(seq uint64, reason string) error {
	if err := s.busyNack(seq, reason); err != nil {
		return err
	}
	if s.cfg.StallTimeout > 0 {
		last := time.Unix(0, s.lastDrain.Load())
		if time.Since(last) > s.cfg.StallTimeout {
			s.srv.metrics.SessionsStalled.Add(1)
			return errStalled
		}
	}
	return nil
}

func (s *Session) busyNack(seq uint64, reason string) error {
	s.srv.metrics.BusyNacked.Add(1)
	return s.write(netproto.NackBusy(seq, s.cfg.RetryAfter, reason))
}

// finish releases one handled frame's backpressure tokens and answers it.
// The tokens go first: once the client has its answer, the frame is no
// longer in flight.
func (s *Session) finish(r ingestJob, herr error) {
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Logf("reliable: finish panic on frame %d: %v", r.m.Seq, p)
		}
	}()
	s.lastDrain.Store(time.Now().UnixNano())
	if s.tenant != nil {
		s.tenant.release()
	}
	s.srv.noteInflight(-1)
	s.srv.metrics.ObserveLatency(time.Since(r.at))
	if herr == nil {
		s.srv.metrics.Acked.Add(1)
		ack := netproto.Ack(r.m.Seq)
		if r.m.Kind == netproto.KindReplRecord {
			// The replication dialect acks with its own kind so the
			// primary's window logic can tell follower acks apart.
			ack.Kind = netproto.KindReplAck
		}
		if err := s.write(ack); err != nil {
			s.conn.Close() // reader notices and ends the session
		}
		return
	}
	s.cfg.Logf("reliable: frame %d rejected: %v", r.m.Seq, herr)
	s.srv.metrics.Nacked.Add(1)
	nack := netproto.Nack(r.m.Seq, clip(herr.Error()))
	if errors.Is(herr, ErrFinal) {
		nack = netproto.NackFinal(r.m.Seq, clip(herr.Error()))
	}
	if err := s.write(nack); err != nil {
		s.conn.Close()
	}
}

// dispatch runs the handler with its own panic isolation: a decoder blowing
// up on a hostile payload costs one nack, not the connection.
func (s *Session) dispatch(m netproto.Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: handler panic: %v", ErrBadFrame, r)
			s.quarantine(m, err.Error())
		}
	}()
	if m.Kind == netproto.KindReplRecord {
		if s.cfg.ReplRecord == nil {
			return errors.New("no repl handler")
		}
		return s.cfg.ReplRecord(m)
	}
	if s.cfg.Handle == nil {
		return errors.New("no handler")
	}
	err = s.cfg.Handle(s.tenantName(), m)
	if err != nil && errors.Is(err, ErrBadFrame) {
		s.quarantine(m, err.Error())
	}
	return err
}

// tenantName is the bound tenant, or the default for sessions that have
// not (yet) bound — checksum quarantines can fire before the first data
// frame binds the session.
func (s *Session) tenantName() string {
	if s.bound == "" {
		return DefaultTenant
	}
	return s.bound
}

func (s *Session) answer(m netproto.Message) error {
	if refused, err := s.notReady(m.Seq); refused {
		return err
	}
	if err := s.ensureBound(m.Seq); err != nil {
		return err
	}
	if s.cfg.Query == nil {
		return s.write(netproto.Nack(m.Seq, "queries unsupported"))
	}
	q, err := netproto.DecodeQuery(m.Payload)
	if err != nil {
		return s.write(netproto.Nack(m.Seq, clip(err.Error())))
	}
	payload, err := s.callQuery(q)
	if err != nil {
		s.cfg.Logf("reliable: query frame %d: %v", q.Seq, err)
		payload = nil // an empty result, like a miss
	}
	return s.write(netproto.Message{Kind: netproto.KindQueryResult, Seq: q.Seq, Payload: payload})
}

func (s *Session) callQuery(q netproto.Query) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("query panic: %v", r)
		}
	}()
	return s.cfg.Query(s.tenantName(), q)
}

func (s *Session) quarantine(m netproto.Message, reason string) {
	s.srv.metrics.Quarantined.Add(1)
	if s.cfg.Quarantine != nil && m.Kind != netproto.KindReplRecord {
		s.cfg.Quarantine(s.tenantName(), m, reason)
	}
}

// write serializes one frame to the connection; the mutex keeps reader-
// side responses (busy nacks, query results) and the lanes' acks from
// interleaving mid-frame.
func (s *Session) write(m netproto.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.cfg.WriteTimeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	return netproto.Write(s.conn, m)
}

// clip bounds nack reasons so a pathological error string cannot bloat the
// response frame.
func clip(reason string) string {
	const max = 200
	if len(reason) > max {
		return reason[:max]
	}
	return reason
}
