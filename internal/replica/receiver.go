package replica

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/store"
)

// Receiver is the follower side of replication: it applies records shipped
// by the primary into the local shard set, makes them durable before they
// are acked, maintains per-tenant watermarks through the prev chain, and
// answers handshake, digest, and manifest requests. Plug HandleHello and
// HandleRecord into reliable.ServerConfig's ReplHello and ReplRecord; plug
// NotReady into its NotReady so client traffic bounces until promotion.
type Receiver struct {
	shards *store.Shards
	group  *store.Group
	// wmEvery persists the watermark file every this many applies (and on
	// Close); staleness only costs idempotent re-shipping after a restart.
	wmEvery int

	mu       sync.Mutex
	epoch    byte
	wm       map[string]int64
	pending  map[string]map[int64]int64 // tenant → prev end → record end
	applies  int
	promoted bool
	records  uint64
	scrubbed uint64
	rejected uint64
}

// ReceiverStats is a snapshot of follower-side counters.
type ReceiverStats struct {
	Epoch    byte   `json:"epoch"`
	Promoted bool   `json:"promoted"`
	Records  uint64 `json:"records_applied"`
	Scrubbed uint64 `json:"records_scrubbed"`
	Rejected uint64 `json:"records_rejected"`
}

// NewReceiver loads the directory's replication metadata and wraps the
// shard set. group, which must not be nil, makes every applied record
// durable before its ack; wmEvery <= 0 defaults to 32.
func NewReceiver(shards *store.Shards, group *store.Group, wmEvery int) (*Receiver, error) {
	if group == nil {
		return nil, errors.New("replica: a receiver needs a commit group")
	}
	if wmEvery <= 0 {
		wmEvery = 32
	}
	m, err := LoadMeta(shards.Dir())
	if err != nil {
		return nil, fmt.Errorf("replica: loading meta: %w", err)
	}
	return &Receiver{
		shards:  shards,
		group:   group,
		wmEvery: wmEvery,
		epoch:   m.Epoch,
		wm:      m.Watermarks,
		pending: make(map[string]map[int64]int64),
	}, nil
}

// Epoch returns the receiver's current epoch.
func (r *Receiver) Epoch() byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Promoted reports whether this node has been promoted to primary.
func (r *Receiver) Promoted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted
}

// Watermark returns a tenant's contiguous applied watermark.
func (r *Receiver) Watermark(tenant string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wm[tenant]
}

// Stats snapshots the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStats{
		Epoch: r.epoch, Promoted: r.promoted,
		Records: r.records, Scrubbed: r.scrubbed, Rejected: r.rejected,
	}
}

// NotReady implements the follower's client gate for
// reliable.ServerConfig.NotReady: until promotion, client ingest is
// refused with a busy hint so reliable clients rotate to the primary.
func (r *Receiver) NotReady() (reason string, retryAfter time.Duration, refuse bool) {
	if r.Promoted() {
		return "", 0, false
	}
	return "follower: not promoted", 500 * time.Millisecond, true
}

// Promote bumps the epoch, persists it, and opens the node to client
// traffic. Replication records from the old primary (old epoch) are fenced
// from here on. Returns the new epoch.
func (r *Receiver) Promote() (byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return r.epoch, nil
	}
	if r.epoch == ^byte(0) {
		return 0, fmt.Errorf("replica: epoch exhausted")
	}
	r.epoch++
	r.promoted = true
	if err := r.saveMetaLocked(); err != nil {
		return 0, fmt.Errorf("replica: persisting promotion: %w", err)
	}
	return r.epoch, nil
}

// Close persists the final watermarks.
func (r *Receiver) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saveMetaLocked()
}

// saveMetaLocked snapshots epoch+watermarks to disk. Caller holds r.mu.
func (r *Receiver) saveMetaLocked() error {
	wm := make(map[string]int64, len(r.wm))
	for k, v := range r.wm {
		wm[k] = v
	}
	return SaveMeta(r.shards.Dir(), Meta{Epoch: r.epoch, Watermarks: wm})
}

// HandleHello answers a KindReplHello payload (reliable.ServerConfig's
// ReplHello). Stale epochs are refused; a newer epoch is adopted.
func (r *Receiver) HandleHello(payload []byte) ([]byte, error) {
	h, err := DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if h.Epoch < r.epoch {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: hello epoch %d < %d", ErrEpochFenced, h.Epoch, r.epoch)
	}
	if r.promoted {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: node promoted", ErrEpochFenced)
	}
	if h.Epoch > r.epoch {
		r.epoch = h.Epoch
	}
	epoch := r.epoch
	r.mu.Unlock()

	switch h.Mode {
	case ModeStream:
		r.mu.Lock()
		wm := make(map[string]int64, len(r.wm))
		for k, v := range r.wm {
			wm[k] = v
		}
		r.mu.Unlock()
		return EncodeWatermarks(epoch, wm), nil
	case ModeDigest:
		d, err := Digests(r.shards)
		if err != nil {
			return nil, err
		}
		return EncodeDigests(d), nil
	case ModeManifest:
		entries, err := TenantManifest(r.shards, h.Tenant)
		if err != nil {
			return nil, err
		}
		return EncodeManifest(entries), nil
	}
	return nil, fmt.Errorf("%w: mode %d", ErrMalformed, h.Mode)
}

// HandleRecord applies one KindReplRecord frame (reliable.ServerConfig's
// ReplRecord): epoch check, CRC32-C verification, append, group commit —
// only then does the session ack, so an acked record is durable here. The
// session runs it for several records at once and in any order: they share
// commit rounds, and the watermark advances through the prev chain, parking
// whatever arrives ahead of its predecessor; scrub records apply without
// touching it.
func (r *Receiver) HandleRecord(m netproto.Message) error {
	rec, err := DecodeRecord(m.Payload)
	if err != nil {
		r.noteRejected()
		return err
	}
	r.mu.Lock()
	if rec.Epoch < r.epoch {
		r.mu.Unlock()
		r.noteRejected()
		return fmt.Errorf("%w: %w: record epoch %d < %d", reliable.ErrFinal, ErrEpochFenced, rec.Epoch, r.epoch)
	}
	if r.promoted {
		r.mu.Unlock()
		r.noteRejected()
		return fmt.Errorf("%w: %w: node promoted", reliable.ErrFinal, ErrEpochFenced)
	}
	if rec.Epoch > r.epoch {
		r.epoch = rec.Epoch
	}
	r.mu.Unlock()

	// End-to-end integrity: verify against the CRC computed on the
	// primary before the record ever crossed the (fault-injected) link.
	// The netproto layer already checked its own frame CRC; this one
	// catches anything between primary disk and our apply path.
	if crc32.Checksum(rec.Payload, castagnoli) != rec.CRC {
		r.noteRejected()
		return fmt.Errorf("replica: record %s/%d: payload crc mismatch", rec.Tenant, rec.Seq)
	}

	st, err := r.shards.Acquire(rec.Tenant)
	if err != nil {
		r.noteRejected()
		return fmt.Errorf("replica: acquiring shard: %w", err)
	}
	if rec.Kind == store.KindQuarantined {
		// The session applies records in any order: a quarantined copy that
		// the primary's good copy shadowed must not land on top of it here.
		_, err = st.Quarantine(rec.Seq, rec.Payload)
	} else {
		_, err = st.Append(rec.Seq, rec.Kind, rec.Payload)
	}
	if err == nil {
		err = r.group.Commit(st)
	}
	r.shards.Release(rec.Tenant)
	if err != nil {
		r.noteRejected()
		return fmt.Errorf("replica: applying record %s/%d: %w", rec.Tenant, rec.Seq, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if rec.Scrub {
		r.scrubbed++
		return nil
	}
	r.records++
	r.advanceLocked(rec.Tenant, rec.Prev, rec.End)
	r.applies++
	if r.applies >= r.wmEvery {
		r.applies = 0
		// Persisted after the commit above, so the saved watermark never
		// runs ahead of durable data. A failed save is retried on the
		// next boundary; staleness is safe.
		if err := r.saveMetaLocked(); err != nil {
			return fmt.Errorf("replica: persisting watermarks: %w", err)
		}
	}
	return nil
}

// advanceLocked moves a tenant's watermark through the prev chain: the
// record covering [prev, end] extends the contiguous prefix only if prev
// is already below the watermark; otherwise it parks until the chain
// closes. Caller holds r.mu.
func (r *Receiver) advanceLocked(tenant string, prev, end int64) {
	w := r.wm[tenant]
	if prev > w {
		p := r.pending[tenant]
		if p == nil {
			p = make(map[int64]int64)
			r.pending[tenant] = p
		}
		p[prev] = end
		return
	}
	if end > w {
		w = end
	}
	// Drain parked successors now reachable from the new watermark.
	for p := r.pending[tenant]; ; {
		e, ok := p[w]
		if !ok {
			break
		}
		delete(p, w)
		if e > w {
			w = e
		}
	}
	r.wm[tenant] = w
}

func (r *Receiver) noteRejected() {
	r.mu.Lock()
	r.rejected++
	r.mu.Unlock()
}

// Digests computes the digest of every tenant in the store directory.
func Digests(shards *store.Shards) (map[string]Digest, error) {
	tenants, err := shards.Tenants()
	if err != nil {
		return nil, err
	}
	return digestsOf(shards, tenants)
}

// digestsOf computes the given tenants' digests from the local shard set.
func digestsOf(shards *store.Shards, tenants []string) (map[string]Digest, error) {
	out := make(map[string]Digest, len(tenants))
	for _, tenant := range tenants {
		st, err := shards.Acquire(tenant)
		if err != nil {
			return nil, err
		}
		var d Digest
		for _, info := range st.Manifest() {
			d.Count++
			d.XorCRC ^= info.CRC
		}
		shards.Release(tenant)
		out[tenant] = d
	}
	return out, nil
}

// TenantManifest lists one tenant's live records as manifest entries. A
// tenant with no segment yields an empty manifest.
func TenantManifest(shards *store.Shards, tenant string) ([]ManifestEntry, error) {
	st, err := shards.Acquire(tenant)
	if err != nil {
		return nil, err
	}
	defer shards.Release(tenant)
	infos := st.Manifest()
	out := make([]ManifestEntry, len(infos))
	for i, info := range infos {
		out[i] = ManifestEntry{Seq: info.Seq, CRC: info.CRC}
	}
	return out, nil
}
