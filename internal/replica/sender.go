package replica

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/store"
)

// ErrReplTimeout reports that a sync-replication wait outlived its budget:
// the record is locally durable but not yet confirmed on the follower.
var ErrReplTimeout = errors.New("replica: timed out waiting for follower durability")

// ErrFenced reports that the follower refused this sender's epoch — the
// follower was promoted and this node is a deposed primary.
var ErrFenced = errors.New("replica: fenced by promoted follower")

// ErrStopped reports use of a stopped sender.
var ErrStopped = errors.New("replica: sender stopped")

// SenderConfig configures a Sender. Shards, Addr, and DialTo are required.
type SenderConfig struct {
	// Shards is the primary's shard set to tail.
	Shards *store.Shards
	// Addr is the follower's replication address; DialTo opens a
	// connection to it (the seam where faultnet links are injected).
	Addr   string
	DialTo func(addr string) (net.Conn, error)
	// Epoch is this primary's replication epoch (from LoadMeta /
	// Promote). The follower fences anything older than what it has seen.
	Epoch byte
	// Poll bounds how long the ship loop sleeps between tail scans when
	// nothing is happening (default 5ms); Kick wakes it early.
	Poll time.Duration
	// BatchBytes bounds the payload bytes read per tenant per scan
	// (default 1 MiB).
	BatchBytes int
	// ScrubInterval, when positive, runs the anti-entropy scrub that
	// often: digest comparison per tenant, manifest diff where digests
	// diverge, re-ship of divergent records.
	ScrubInterval time.Duration
	// HandshakeTimeout bounds the replication hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// MaxInFlight bounds unacked records on the wire (default 32). It need
	// not fit the follower's session queue, which paces the link by not
	// reading.
	MaxInFlight int
	// Seed feeds the retry jitter (0 = deterministic).
	Seed int64
	// Logf, when set, receives replication diagnostics.
	Logf func(format string, args ...any)
}

// shipRef ties an in-flight link sequence number to the record it carries.
type shipRef struct {
	tenant string
	end    int64
}

// SenderStats is a snapshot of primary-side replication counters.
type SenderStats struct {
	Epoch        byte   `json:"epoch"`
	Records      uint64 `json:"records_shipped"`
	ScrubShipped uint64 `json:"records_scrub_shipped"`
	Scrubs       uint64 `json:"scrub_passes"`
	ScrubErrors  uint64 `json:"scrub_errors"`
	InFlight     int    `json:"records_in_flight"`
	LagBytes     int64  `json:"lag_bytes"`
	Fenced       bool   `json:"fenced"`
	LinkUp       bool   `json:"link_up"`
}

// Sender tails every tenant shard on the primary and streams new records
// to the follower. Reliability (windowed acks, retransmits, reconnect
// backoff with jitter) comes from reliable.Client; the sender adds the
// replication handshake, per-tenant cursors, the prev chain, sync-mode
// durability waits, and the anti-entropy scrub.
//
// All client interaction happens on the Run goroutine; WaitDurable, Kick,
// and Stats are safe to call from any goroutine.
type Sender struct {
	cfg    SenderConfig
	client *reliable.Client

	mu          sync.Mutex
	next        map[string]int64              // per-tenant read cursor (primary offsets)
	prevEnd     map[string]int64              // end of the last shipped record (prev chain)
	shippedTo   map[string]int64              // end of the newest shipped record
	outstanding map[string]map[int64]struct{} // shipped-but-unacked record ends
	inflight    map[uint64]shipRef            // link seq → record
	waitCh      chan struct{}                 // closed+replaced on every ack
	linkSeq     uint64
	initialized bool // cursors seeded from the follower's watermarks
	fenced      bool
	linkUp      bool
	records     uint64
	scrubShip   uint64
	scrubs      uint64
	scrubErrs   uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewSender validates cfg and builds the sender; Run starts shipping.
func NewSender(cfg SenderConfig) (*Sender, error) {
	if cfg.Shards == nil || cfg.Addr == "" || cfg.DialTo == nil {
		return nil, errors.New("replica: SenderConfig needs Shards, Addr, and DialTo")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 5 * time.Millisecond
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 1 << 20
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Sender{
		cfg:         cfg,
		next:        make(map[string]int64),
		prevEnd:     make(map[string]int64),
		shippedTo:   make(map[string]int64),
		outstanding: make(map[string]map[int64]struct{}),
		inflight:    make(map[uint64]shipRef),
		waitCh:      make(chan struct{}),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	client, err := reliable.NewClient(reliable.Options{
		Dial:        func() (net.Conn, error) { return s.dialAndHandshake(cfg.Addr) },
		OnAck:       s.onAck,
		MaxInFlight: cfg.MaxInFlight,
		// The replication link retries indefinitely: an unreachable
		// follower is an operating condition (reported as lag and
		// link_down), not a reason to abandon the stream.
		MaxStalls: 1 << 30,
		Seed:      cfg.Seed,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.client = client
	return s, nil
}

// Run ships records until Stop (or a fencing refusal, which means this
// node was deposed). Call on its own goroutine.
func (s *Sender) Run() {
	defer close(s.done)
	defer s.client.Close()
	var lastScrub time.Time
	for {
		select {
		case <-s.stop:
			// Best-effort final flush so Stop after quiesced traffic
			// leaves nothing behind.
			if s.client.InFlight() > 0 {
				_ = s.client.Flush()
			}
			return
		default:
		}
		if s.isFenced() {
			s.cfg.Logf("replica: sender fenced by follower, stopping")
			return
		}
		n, err := s.shipOnce()
		s.noteErr("ship pass", err)
		if s.cfg.ScrubInterval > 0 {
			if lastScrub.IsZero() {
				// Anchor the first interval at startup; the stream itself
				// handles initial catch-up, so the first scrub can wait.
				lastScrub = time.Now()
			} else if time.Since(lastScrub) >= s.cfg.ScrubInterval {
				lastScrub = time.Now()
				s.scrub()
			}
		}
		if n > 0 {
			continue // keep draining the tail at full speed
		}
		if s.client.InFlight() > 0 {
			s.noteErr("ack pump", s.client.Tick(s.cfg.Poll))
			continue
		}
		select {
		case <-s.kick:
		case <-time.After(s.cfg.Poll):
		case <-s.stop:
		}
	}
}

// Stop signals the ship loop to exit; Wait blocks until it has.
func (s *Sender) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}

// Wait blocks until Run has returned.
func (s *Sender) Wait() { <-s.done }

// Kick wakes the ship loop early (call after appending records a sync-mode
// handler is about to wait on).
func (s *Sender) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stats snapshots the sender's counters and computes the replication lag:
// bytes appended locally but not yet follower-durable, summed over
// tenants.
func (s *Sender) Stats() SenderStats {
	ends := make(map[string]int64)
	if tenants, err := s.cfg.Shards.Tenants(); err == nil {
		for _, tenant := range tenants {
			if st, err := s.cfg.Shards.Acquire(tenant); err == nil {
				ends[tenant] = st.End()
				s.cfg.Shards.Release(tenant)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag int64
	for tenant, end := range ends {
		durable := s.shippedTo[tenant]
		for e := range s.outstanding[tenant] {
			if e <= durable {
				durable = e - 1
			}
		}
		if d := end - durable; d > 0 {
			lag += d
		}
	}
	return SenderStats{
		Epoch:        s.cfg.Epoch,
		Records:      s.records,
		ScrubShipped: s.scrubShip,
		Scrubs:       s.scrubs,
		ScrubErrors:  s.scrubErrs,
		InFlight:     len(s.inflight),
		LagBytes:     lag,
		Fenced:       s.fenced,
		LinkUp:       s.linkUp,
	}
}

// WaitDurable blocks until every record of the tenant with end offset at
// or below end has been acked by the follower (applied and fsynced there),
// or the timeout passes. This is the sync-replication gate: a server
// handler acks its client only after WaitDurable returns nil, so a synced
// ack proves the frame exists durably on two nodes.
func (s *Sender) WaitDurable(tenant string, end int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	for !s.durableLocked(tenant, end) {
		if s.fenced {
			s.mu.Unlock()
			return ErrFenced
		}
		ch := s.waitCh
		s.mu.Unlock()
		select {
		case <-s.stop:
			return ErrStopped
		default:
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrReplTimeout
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
		case <-s.stop:
			timer.Stop()
			return ErrStopped
		case <-timer.C:
			timer.Stop()
			return ErrReplTimeout
		}
		timer.Stop()
		s.mu.Lock()
	}
	s.mu.Unlock()
	return nil
}

// durableLocked reports whether everything at or below end has been acked.
// Caller holds s.mu.
func (s *Sender) durableLocked(tenant string, end int64) bool {
	if s.shippedTo[tenant] < end {
		return false // not even on the wire yet
	}
	for e := range s.outstanding[tenant] {
		if e <= end {
			return false
		}
	}
	return true
}

// noteErr logs a ship-loop error and recognizes fencing refusals that
// surface asynchronously — e.g. a nack processed by the ack pump after the
// follower was promoted mid-stream.
func (s *Sender) noteErr(context string, err error) {
	if err == nil {
		return
	}
	if isFencedReason(err.Error()) {
		s.setFenced()
	}
	s.cfg.Logf("replica: %s: %v", context, err)
}

func (s *Sender) isFenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

func (s *Sender) setFenced() {
	s.mu.Lock()
	s.fenced = true
	close(s.waitCh)
	s.waitCh = make(chan struct{})
	s.mu.Unlock()
}

// onAck runs on the ship goroutine whenever the follower acks a record.
func (s *Sender) onAck(seq uint64) {
	s.mu.Lock()
	if ref, ok := s.inflight[seq]; ok {
		delete(s.inflight, seq)
		if out := s.outstanding[ref.tenant]; out != nil {
			delete(out, ref.end)
		}
		close(s.waitCh)
		s.waitCh = make(chan struct{})
	}
	s.mu.Unlock()
}

// shipOnce scans every tenant's tail past its cursor and ships what it
// finds, returning how many records went out.
func (s *Sender) shipOnce() (int, error) {
	tenants, err := s.cfg.Shards.Tenants()
	if err != nil {
		return 0, err
	}
	shipped := 0
	for _, tenant := range tenants {
		st, err := s.cfg.Shards.Acquire(tenant)
		if err != nil {
			return shipped, err
		}
		s.mu.Lock()
		cursor := s.next[tenant]
		s.mu.Unlock()
		var recs []store.Record
		if st.End() > cursor {
			recs, err = st.ReadSince(cursor, s.cfg.BatchBytes)
		}
		s.cfg.Shards.Release(tenant)
		if err != nil {
			return shipped, fmt.Errorf("replica: reading %s tail: %w", tenant, err)
		}
		for _, rec := range recs {
			s.mu.Lock()
			prev := s.prevEnd[tenant]
			s.mu.Unlock()
			err := s.ship(Record{
				Epoch: s.cfg.Epoch, Tenant: tenant,
				Seq: rec.Seq, Kind: rec.Kind,
				End: rec.End, Prev: prev,
				CRC: rec.CRC, Payload: rec.Payload,
			}, true)
			if err != nil {
				// The cursor was not advanced; the record is re-read on
				// the next pass.
				return shipped, err
			}
			s.mu.Lock()
			s.next[tenant] = rec.End
			s.prevEnd[tenant] = rec.End
			if rec.End > s.shippedTo[tenant] {
				s.shippedTo[tenant] = rec.End
			}
			s.records++
			s.mu.Unlock()
			shipped++
		}
	}
	return shipped, nil
}

// ship encodes and sends one record. Tracked records join the outstanding
// set (they carry the watermark chain); scrub re-ships are fire-and-ack.
func (s *Sender) ship(rec Record, track bool) error {
	s.mu.Lock()
	s.linkSeq++
	seq := s.linkSeq
	if track {
		s.inflight[seq] = shipRef{tenant: rec.Tenant, end: rec.End}
		out := s.outstanding[rec.Tenant]
		if out == nil {
			out = make(map[int64]struct{})
			s.outstanding[rec.Tenant] = out
		}
		out[rec.End] = struct{}{}
	}
	s.mu.Unlock()
	err := s.client.Send(netproto.Message{
		Kind: netproto.KindReplRecord, Seq: seq, Payload: EncodeRecord(rec),
	})
	if err != nil {
		s.mu.Lock()
		if _, still := s.inflight[seq]; still {
			delete(s.inflight, seq)
			if out := s.outstanding[rec.Tenant]; out != nil {
				delete(out, rec.End)
			}
		}
		s.mu.Unlock()
		if isFencedReason(err.Error()) {
			s.setFenced()
			return fmt.Errorf("%w: %v", ErrFenced, err)
		}
		return err
	}
	return nil
}

// dialAndHandshake is the reliable.Client dial hook: it opens the
// connection and completes the ModeStream handshake before the client's
// reader attaches, seeding the cursors from the follower's watermarks on
// the first successful exchange (later reconnects keep the cursors —
// unacked records are retransmitted by the client, acked ones are durable
// on the follower, so no rewind is ever needed).
func (s *Sender) dialAndHandshake(addr string) (net.Conn, error) {
	select {
	case <-s.stop:
		return nil, ErrStopped
	default:
	}
	if s.isFenced() {
		return nil, ErrFenced
	}
	if addr == "" {
		addr = s.cfg.Addr
	}
	conn, err := s.cfg.DialTo(addr)
	if err != nil {
		s.setLink(false)
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	hello := netproto.Message{
		Kind: netproto.KindReplHello, Seq: netproto.HelloSeq,
		Payload: EncodeHello(Hello{Epoch: s.cfg.Epoch, Mode: ModeStream}),
	}
	if err := netproto.Write(conn, hello); err != nil {
		conn.Close()
		s.setLink(false)
		return nil, err
	}
	for {
		m, err := netproto.Read(conn)
		if err != nil {
			conn.Close()
			s.setLink(false)
			return nil, fmt.Errorf("replica: handshake read: %w", err)
		}
		if m.Seq != netproto.HelloSeq {
			continue // stray frame from a previous connection's buffers
		}
		switch m.Kind {
		case netproto.KindReplAck:
			_, wm, err := DecodeWatermarks(m.Payload)
			if err != nil {
				conn.Close()
				return nil, err
			}
			s.mu.Lock()
			if !s.initialized {
				s.initialized = true
				for tenant, w := range wm {
					s.next[tenant] = w
					s.prevEnd[tenant] = w
					s.shippedTo[tenant] = w
				}
			}
			s.linkUp = true
			s.mu.Unlock()
			conn.SetDeadline(time.Time{})
			return conn, nil
		case netproto.KindNack:
			reason := string(m.Payload)
			conn.Close()
			s.setLink(false)
			if isFencedReason(reason) {
				s.setFenced()
				return nil, fmt.Errorf("%w: %s", ErrFenced, reason)
			}
			return nil, fmt.Errorf("replica: handshake refused: %s", reason)
		}
	}
}

func (s *Sender) setLink(up bool) {
	s.mu.Lock()
	s.linkUp = up
	s.mu.Unlock()
}

// isFencedReason recognizes an epoch-fencing refusal in a nack reason or
// give-up error text.
func isFencedReason(reason string) bool {
	return strings.Contains(reason, "epoch fenced") || strings.Contains(reason, "node promoted")
}

// replQuery runs one request/response hello (digest or manifest) on a
// dedicated short-lived connection — the streaming connection's reader
// belongs to the client, so side-channel queries get their own.
func (s *Sender) replQuery(h Hello) ([]byte, error) {
	conn, err := s.cfg.DialTo(s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	msg := netproto.Message{
		Kind: netproto.KindReplHello, Seq: netproto.HelloSeq, Payload: EncodeHello(h),
	}
	if err := netproto.Write(conn, msg); err != nil {
		return nil, err
	}
	for {
		m, err := netproto.Read(conn)
		if err != nil {
			return nil, err
		}
		if m.Seq != netproto.HelloSeq {
			continue
		}
		switch m.Kind {
		case netproto.KindReplAck:
			return m.Payload, nil
		case netproto.KindNack:
			reason := string(m.Payload)
			if isFencedReason(reason) {
				s.setFenced()
				return nil, fmt.Errorf("%w: %s", ErrFenced, reason)
			}
			return nil, fmt.Errorf("replica: %s query refused: %s", modeName(h.Mode), reason)
		}
	}
}

func modeName(mode byte) string {
	switch mode {
	case ModeStream:
		return "stream"
	case ModeDigest:
		return "digest"
	case ModeManifest:
		return "manifest"
	}
	return "unknown"
}

// scrub runs one anti-entropy pass: compare per-tenant digests, pull the
// manifest for any divergent tenant, and re-ship records the follower is
// missing or holds with a different CRC. Re-ships carry the scrub flag so
// they never disturb the watermark chain. Records still in flight on the
// stream are skipped — they are divergent only because they have not
// landed yet.
func (s *Sender) scrub() {
	s.mu.Lock()
	s.scrubs++
	s.mu.Unlock()
	fail := func(context string, err error) {
		s.mu.Lock()
		s.scrubErrs++
		s.mu.Unlock()
		s.cfg.Logf("replica: scrub %s: %v", context, err)
	}
	raw, err := s.replQuery(Hello{Epoch: s.cfg.Epoch, Mode: ModeDigest})
	if err != nil {
		fail("digest query", err)
		return
	}
	remote, err := DecodeDigests(raw)
	if err != nil {
		fail("digest decode", err)
		return
	}
	local, err := Digests(s.cfg.Shards)
	if err != nil {
		fail("local digests", err)
		return
	}
	for tenant, ld := range local {
		if remote[tenant] == ld {
			continue
		}
		raw, err := s.replQuery(Hello{Epoch: s.cfg.Epoch, Mode: ModeManifest, Tenant: tenant})
		if err != nil {
			fail("manifest query", err)
			return
		}
		entries, err := DecodeManifest(raw)
		if err != nil {
			fail("manifest decode", err)
			return
		}
		theirs := make(map[uint64]uint32, len(entries))
		for _, e := range entries {
			theirs[e.Seq] = e.CRC
		}
		st, err := s.cfg.Shards.Acquire(tenant)
		if err != nil {
			fail("acquire", err)
			return
		}
		for _, info := range st.Manifest() {
			s.mu.Lock()
			settled := s.durableLocked(tenant, info.End)
			s.mu.Unlock()
			if !settled {
				continue // still in flight (or unshipped) on the stream
			}
			if crc, ok := theirs[info.Seq]; ok && crc == info.CRC {
				continue
			}
			payload, kind, err := st.Get(info.Seq)
			if err != nil {
				fail("read divergent record", err)
				continue
			}
			err = s.ship(Record{
				Epoch: s.cfg.Epoch, Scrub: true, Tenant: tenant,
				Seq: info.Seq, Kind: kind, End: info.End,
				CRC: info.CRC, Payload: payload,
			}, false)
			if err != nil {
				fail("re-ship", err)
				break
			}
			s.mu.Lock()
			s.scrubShip++
			s.mu.Unlock()
		}
		s.cfg.Shards.Release(tenant)
	}
}
