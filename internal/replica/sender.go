package replica

import (
	"errors"
	"fmt"
	"math"
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

// handshakeTimeout bounds the replication hello exchange, and the digest
// and manifest exchanges of a scrub.
const handshakeTimeout = 5 * time.Second

// ErrStopped reports use of a stopped sender.
var ErrStopped = errors.New("replica: sender stopped")

// SenderConfig configures a Sender. Shards, Addr, and DialTo are required.
type SenderConfig struct {
	// Shards is the primary's shard set. NewSender subscribes to its appends
	// (store.Shards.Subscribe: one sender per shard set).
	Shards *store.Shards
	// Addr is the follower's replication address; DialTo opens a
	// connection to it (the seam where faultnet links are injected).
	Addr   string
	DialTo func(addr string) (net.Conn, error)
	// Epoch is this primary's replication epoch (from LoadMeta /
	// Promote). The follower fences anything older than what it has seen.
	Epoch byte
	// Poll is how long the ship loop waits before retrying a pass that
	// failed (default 5ms). Nothing polls for work: appends wake the loop.
	Poll time.Duration
	// BatchBytes bounds, per tenant, the record bytes handed from Append
	// to the ship loop and not yet taken by it, and the payload bytes of one
	// catch-up read (default 1 MiB). Appends past the bound are shipped
	// from disk.
	BatchBytes int
	// ScrubInterval, when positive, runs the anti-entropy scrub that
	// often: digest comparison per tenant, manifest diff where digests
	// diverge, re-ship of divergent records.
	ScrubInterval time.Duration
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
	Epoch   byte   `json:"epoch"`
	Records uint64 `json:"records_shipped"`
	// FromMemory and FromDisk split Records by where the payload came from:
	// the slice Append announced, or a catch-up read of the segment (start,
	// a follower that was behind, a hand-off past BatchBytes, a failed pass).
	FromMemory   uint64 `json:"records_from_memory"`
	FromDisk     uint64 `json:"records_from_disk"`
	ScrubShipped uint64 `json:"records_scrub_shipped"`
	Scrubs       uint64 `json:"scrub_passes"`
	ScrubErrors  uint64 `json:"scrub_errors"`
	InFlight     int    `json:"records_in_flight"`
	LagBytes     int64  `json:"lag_bytes"`
	Fenced       bool   `json:"fenced"`
	LinkUp       bool   `json:"link_up"`
}

// tenantLink is the sender's view of one tenant's segment, in the primary's
// offsets.
type tenantLink struct {
	// base is the segment's end when the sender first heard of the tenant:
	// the start of the first record announced to it, or End() at its first
	// catch-up read if that came first. Nothing at or past base was ever
	// shipped by an earlier process from this segment as it is now.
	base int64
	// next is the cursor: the end of the newest shipped record and the prev
	// of the one to ship next. Records ship in append order, so everything
	// below next is on the wire or acked. Set once from min(the follower's
	// watermark, base) — a follower can hold a tail the primary lost in a
	// crash, and its watermark then lies past records not yet written.
	next   int64
	seeded bool
	// end is the newest segment end announced (or seen by a catch-up read).
	end int64
	// queued counts the tenant's record bytes in the sender's queue.
	queued int
	// outstanding maps the end of each shipped, unacked record to its prev.
	outstanding map[int64]int64
}

// announced is one append handed over by the store.
type announced struct {
	tenant string
	rec    store.Record
}

// Sender streams every record appended to the primary's shards to the
// follower, in each tenant's append order. Append announces a record to it
// under the store mutex (store.Shards.Subscribe) and the ship loop sends it
// from the announced payload, so a record is on the wire while the primary's
// own fsync runs; the segment is read back only to catch up (records that
// predate the process or that the follower lacks, a hand-off that outgrew
// BatchBytes, a pass that failed). Reliability (windowed acks, retransmits,
// reconnect backoff with jitter) comes from reliable.Client; the sender adds
// the replication handshake, per-tenant cursors, the prev chain, sync-mode
// durability waits, and the anti-entropy scrub.
//
// All client interaction happens on the Run goroutine; WaitDurable, Kick,
// and Stats are safe to call from any goroutine.
type Sender struct {
	cfg         SenderConfig
	client      *reliable.Client
	unsubscribe func()

	// behind holds the tenants whose cursor trails records no queued
	// announcement carries — at first every tenant in the directory — and
	// each gets a catch-up read. Run goroutine only.
	behind map[string]struct{}

	// mu is taken under a store's mutex (onAppend): never call into the
	// shard set while holding it.
	mu         sync.Mutex
	links      map[string]*tenantLink
	queue      []announced         // appends not yet taken by the ship loop
	dropped    map[string]struct{} // tenants with an append past BatchBytes, not queued
	wm         map[string]int64    // the follower's watermarks at the first handshake
	inflight   map[uint64]shipRef  // link seq → record
	waitCh     chan struct{}       // closed+replaced by notifyLocked
	linkSeq    uint64
	fenced     bool
	linkUp     bool
	fromMemory uint64
	fromDisk   uint64
	scrubShip  uint64
	scrubs     uint64
	scrubErrs  uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewSender validates cfg, builds the sender, subscribes it to the shard
// set's appends and lists the store directory, once: the tenants in it get a
// catch-up read, and every other tenant is heard of through its appends. Run
// starts shipping.
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
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Sender{
		cfg:      cfg,
		links:    make(map[string]*tenantLink),
		behind:   make(map[string]struct{}),
		dropped:  make(map[string]struct{}),
		inflight: make(map[uint64]shipRef),
		waitCh:   make(chan struct{}),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
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
	s.unsubscribe = cfg.Shards.Subscribe(s.onAppend)
	tenants, err := cfg.Shards.Tenants()
	if err != nil {
		s.unsubscribe()
		return nil, fmt.Errorf("replica: listing %s: %w", cfg.Shards.Dir(), err)
	}
	for _, tenant := range tenants {
		s.behind[tenant] = struct{}{}
	}
	return s, nil
}

// onAppend is the store's announcement of one append. It runs under that
// store's mutex: enqueue and return.
func (s *Sender) onAppend(tenant string, rec store.Record) {
	s.mu.Lock()
	l := s.linkLocked(tenant, rec.Off)
	l.end = rec.End
	if size := int(rec.End - rec.Off); l.queued == 0 || l.queued+size <= s.cfg.BatchBytes {
		s.queue = append(s.queue, announced{tenant: tenant, rec: rec})
		l.queued += size
	} else {
		s.dropped[tenant] = struct{}{}
	}
	s.mu.Unlock()
	s.Kick()
}

// linkLocked returns the tenant's link, creating it with the given base.
// Caller holds s.mu.
func (s *Sender) linkLocked(tenant string, base int64) *tenantLink {
	l := s.links[tenant]
	if l == nil {
		l = &tenantLink{base: base, outstanding: make(map[int64]int64)}
		s.links[tenant] = l
	}
	return l
}

// Run ships records until Stop (or a fencing refusal, which means this
// node was deposed). Call on its own goroutine.
func (s *Sender) Run() {
	defer close(s.done)
	defer s.client.Close()
	defer s.unsubscribe()
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
			continue // more may have been announced meanwhile
		}
		if s.client.InFlight() > 0 {
			s.noteErr("ack pump", s.client.TickOr(s.cfg.Poll, s.kick))
			continue
		}
		// Idle: an append wakes the loop. The timer is for a pass that left
		// work undone, and otherwise for the next scrub.
		wait := time.Duration(math.MaxInt64)
		switch {
		case err != nil || len(s.behind) > 0:
			wait = s.cfg.Poll
		case s.cfg.ScrubInterval > 0:
			wait = time.Until(lastScrub.Add(s.cfg.ScrubInterval))
		}
		timer := time.NewTimer(wait)
		select {
		case <-s.kick:
		case <-timer.C:
		case <-s.stop:
		}
		timer.Stop()
	}
}

// Stop signals the ship loop to exit; Wait blocks until it has. Records in
// flight are waited for while the link holds; a link that is down is not
// redialed.
func (s *Sender) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.client.Abort()
}

// Wait blocks until Run has returned.
func (s *Sender) Wait() { <-s.done }

// Kick wakes the ship loop. Append does it for every record; nothing else
// needs to.
func (s *Sender) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stats snapshots the sender's counters and computes the replication lag:
// bytes appended locally but not yet follower-durable, summed over the
// tenants the sender has heard of (an append, or the catch-up at start).
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag int64
	for _, l := range s.links {
		durable := l.next
		for _, prev := range l.outstanding {
			durable = min(durable, prev)
		}
		if d := l.end - durable; d > 0 {
			lag += d
		}
	}
	return SenderStats{
		Epoch:        s.cfg.Epoch,
		Records:      s.fromMemory + s.fromDisk,
		FromMemory:   s.fromMemory,
		FromDisk:     s.fromDisk,
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
// Every appended record ships, in append order, so the cursor passing end
// means the record ending there is on the wire and no later copy of its
// sequence number stands in for it. Caller holds s.mu.
func (s *Sender) durableLocked(tenant string, end int64) bool {
	l := s.links[tenant]
	if l == nil || l.next < end {
		return false // not even on the wire yet
	}
	for e := range l.outstanding {
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
	s.notifyLocked()
	s.mu.Unlock()
	s.client.Abort() // a deposed primary has nobody to redial
}

// notifyLocked has every WaitDurable look again. Caller holds s.mu.
func (s *Sender) notifyLocked() {
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

// onAck runs on the ship goroutine whenever the follower acks a record.
func (s *Sender) onAck(seq uint64) {
	s.mu.Lock()
	if ref, ok := s.inflight[seq]; ok {
		delete(s.inflight, seq)
		delete(s.links[ref.tenant].outstanding, ref.end)
		s.notifyLocked()
	}
	s.mu.Unlock()
}

// shipOnce ships what Append has announced since the last pass, from memory
// where a record continues its tenant's cursor, and catches up from disk the
// tenants where it does not. It returns how many records went out. Nothing
// ships before the link is up: the handshake brings the follower's
// watermarks, which the cursors are seeded from.
func (s *Sender) shipOnce() (shipped int, err error) {
	if err := s.client.Connect(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	queue := s.queue
	s.queue = nil
	for _, a := range queue {
		s.links[a.tenant].queued = 0
	}
	for tenant := range s.dropped {
		s.behind[tenant] = struct{}{}
		delete(s.dropped, tenant)
	}
	s.mu.Unlock()
	for i, a := range queue {
		switch next := s.cursor(a.tenant); {
		case a.rec.End <= next:
			// A catch-up read got to it before its announcement did.
		case a.rec.Off != next:
			s.behind[a.tenant] = struct{}{} // what lies between was not queued
		default:
			if err := s.shipNext(a.tenant, a.rec, &s.fromMemory); err != nil {
				for _, rest := range queue[i:] {
					s.behind[rest.tenant] = struct{}{}
				}
				return shipped, err
			}
			shipped++
		}
	}
	// A tenant stays behind past a pass that failed or a read that filled
	// its batch; the next pass goes on from its cursor.
	for tenant := range s.behind {
		n, caughtUp, err := s.catchUp(tenant)
		shipped += n
		if err != nil {
			return shipped, err
		}
		if caughtUp {
			delete(s.behind, tenant)
		}
	}
	return shipped, nil
}

// cursor returns an announced tenant's cursor, seeding it on first use.
func (s *Sender) cursor(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seedLocked(tenant, s.links[tenant])
}

// seedLocked sets a link's cursor, once, to min(the follower's watermark,
// the link's base) and returns the cursor. Caller holds s.mu; the handshake
// has happened.
func (s *Sender) seedLocked(tenant string, l *tenantLink) int64 {
	if !l.seeded {
		l.seeded = true
		l.next = min(s.wm[tenant], l.base)
		s.notifyLocked() // what the follower already holds is durable without an ack
	}
	return l.next
}

// catchUp ships one batch of a tenant's records from disk, from its cursor
// on, and reports whether that reached the segment's end.
func (s *Sender) catchUp(tenant string) (shipped int, caughtUp bool, err error) {
	st, err := s.cfg.Shards.Acquire(tenant)
	if err != nil {
		return 0, false, err
	}
	end := st.End()
	s.mu.Lock()
	// If the link is new no append was announced before this lock was taken,
	// so end is where the segment stood when the sender subscribed.
	l := s.linkLocked(tenant, end)
	l.end = max(l.end, end)
	next := s.seedLocked(tenant, l)
	s.mu.Unlock()
	var recs []store.Record
	if end > next {
		recs, err = st.ReadSince(next, s.cfg.BatchBytes)
	}
	s.cfg.Shards.Release(tenant)
	if err != nil {
		return 0, false, fmt.Errorf("replica: reading %s tail: %w", tenant, err)
	}
	for _, rec := range recs {
		if err := s.shipNext(tenant, rec, &s.fromDisk); err != nil {
			return shipped, false, err
		}
		shipped++
	}
	return shipped, len(recs) == 0 || recs[len(recs)-1].End >= end, nil
}

// shipNext ships the record that continues the tenant's cursor and advances
// it, counting the record in from (guarded by s.mu). On error the cursor
// stays, and the record is read again from disk.
func (s *Sender) shipNext(tenant string, rec store.Record, from *uint64) error {
	s.mu.Lock()
	l := s.links[tenant]
	prev := l.next
	s.mu.Unlock()
	err := s.ship(Record{
		Epoch: s.cfg.Epoch, Tenant: tenant,
		Seq: rec.Seq, Kind: rec.Kind,
		End: rec.End, Prev: prev,
		CRC: rec.CRC, Payload: rec.Payload,
	}, true)
	if err != nil {
		return err
	}
	s.mu.Lock()
	l.next = rec.End
	*from++
	if _, unacked := l.outstanding[rec.End]; !unacked {
		// Send waited for room in the window and this record's own ack came
		// in meanwhile, when the cursor did not cover it yet.
		s.notifyLocked()
	}
	s.mu.Unlock()
	return nil
}

// ship encodes and sends one record. Tracked records join the outstanding
// set (they carry the watermark chain); scrub re-ships are fire-and-ack.
func (s *Sender) ship(rec Record, track bool) error {
	s.mu.Lock()
	s.linkSeq++
	seq := s.linkSeq
	if track {
		s.inflight[seq] = shipRef{tenant: rec.Tenant, end: rec.End}
		s.links[rec.Tenant].outstanding[rec.End] = rec.Prev
	}
	s.mu.Unlock()
	err := s.client.Send(netproto.Message{
		Kind: netproto.KindReplRecord, Seq: seq, Payload: EncodeRecord(rec),
	})
	if err != nil {
		s.mu.Lock()
		if _, still := s.inflight[seq]; still {
			delete(s.inflight, seq)
			delete(s.links[rec.Tenant].outstanding, rec.End)
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
// reader attaches, keeping the follower's watermarks of the first
// successful exchange for the cursors to be seeded from (later reconnects
// keep the cursors — unacked records are retransmitted by the client, acked
// ones are durable on the follower, so no rewind is ever needed).
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
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
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
			if s.wm == nil {
				s.wm = wm
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
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
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
	s.mu.Lock()
	tenants := make([]string, 0, len(s.links))
	for tenant := range s.links {
		tenants = append(tenants, tenant)
	}
	s.mu.Unlock()
	local, err := digestsOf(s.cfg.Shards, tenants)
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
