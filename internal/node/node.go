// Package node is the server of the DBGC system (Figure 2: receive →
// store B) as one importable value. Open assembles tenant shards → commit
// group → replication role → reliable.Server, and the package owns the only
// copy of what runs per frame: the handler, the fsync commit, the
// replication gate, the querier, the quarantiner and the health
// probes. cmd/dbgc-server is this package behind flags; cmd/dbgc-loadgen
// crashes this package's nodes, not replicas of them.
//
// The node stores the bit sequence B as it arrived and decodes only to
// answer a query (or, with Config.Verify, to check a frame before acking
// it): a stored frame that no longer decodes whole is answered from the
// sections that still do.
//
// The contract: an ack means durable — every frame is group-committed
// (store.Group) before it is acked — and, on a primary, durable on the
// follower's disk too. A frame's shard stays pinned across Append → Commit →
// WaitDurable, the sequence bench/service.go mirrors;
// Append itself hands the record to the replication sender, so the follower's
// fsync runs beside the local one and the ack waits for the later of the two.
package node

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"dbgc"
	"dbgc/internal/core"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/ops"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

// Config describes one node. Every field is a dbgc-server flag or a hook
// the chaos harness injects; zero values take the components' defaults.
type Config struct {
	// Listen is the TCP address clients and the replication peer dial.
	Listen string
	// Dir holds one shard file per tenant, at most OpenStores of them open
	// at once. OpenFile, when set, opens a shard's backing file
	// (store.Shards.OpenFile: where the harness puts a faultnet.Disk).
	Dir        string
	OpenStores int
	OpenFile   func(path string) (store.File, error)
	// Verify decodes every frame under Limits before storing it, and
	// discards the points: a frame no query could decode is nacked and
	// quarantined at ingest. Off, the node stores what it is sent and a
	// frame is first decoded by the first query for it. Limits bound every
	// decode, at ingest and at query time.
	Verify bool
	Limits dbgc.DecodeLimits

	// ServerConfig carries the transport's timeouts, admission limits,
	// backpressure and shedding marks, and Logf — the node's one log sink.
	// Open fills Handle, Query, Quarantine, ReplHello, ReplRecord, NotReady.
	reliable.ServerConfig

	// Follower accepts replication and busy-nacks clients until promoted.
	// Promote bumps the replication epoch before the node serves (fencing
	// the deposed primary).
	Follower bool
	Promote  bool

	// SenderConfig.Addr, when set, makes this node the primary of the
	// follower listening there; ScrubInterval, Poll, MaxInFlight, Seed and
	// DialTo (default: TCP, 5 s timeout) shape the link. Open fills Shards,
	// Epoch and Logf. A primary withholds each client ack until the
	// follower has the frame durably, nacking after SyncTimeout (default
	// DefaultSyncTimeout): while the follower is unreachable every frame is
	// stored and nacked, and the follower catches up from disk later.
	// /healthz degrades once replication lag exceeds ReplLagMax bytes
	// (0 = never).
	replica.SenderConfig
	SyncTimeout time.Duration
	ReplLagMax  int64
}

// DefaultSyncTimeout is how long a primary waits for the follower's ack of
// a frame when Config.SyncTimeout is not positive.
const DefaultSyncTimeout = 5 * time.Second

// Node is a running server. Open builds it, Serve accepts connections,
// Close tears it down.
type Node struct {
	cfg  Config
	logf func(format string, args ...any)

	shards   *store.Shards
	group    *store.Group
	sender   *replica.Sender   // primary only
	receiver *replica.Receiver // follower only
	srv      *reliable.Server
	ln       net.Listener
	health   ops.Health

	closeOnce sync.Once
}

// Open validates cfg, assembles the node and binds its listener. Promotion
// happens before anything serves: the epoch bump must be durable before the
// first client frame is acked. On error nothing is left running.
func Open(cfg Config) (_ *Node, err error) {
	if cfg.Addr != "" && cfg.Follower {
		return nil, errors.New("node: -replica-of and -follower are mutually exclusive")
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = DefaultSyncTimeout
	}
	n := &Node{cfg: cfg, logf: cfg.ServerConfig.Logf}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	defer func() {
		if err != nil {
			n.Abort()
		}
	}()

	if n.shards, err = store.OpenShards(cfg.Dir, cfg.OpenStores); err != nil {
		return nil, fmt.Errorf("node: opening storage: %w", err)
	}
	n.shards.OpenFile = cfg.OpenFile
	// One commit group batches the fsyncs of every tenant shard, the
	// follower's applies among them: each frame waits for its round.
	n.group = store.NewGroup(0)

	if cfg.Promote && !cfg.Follower {
		epoch, err := replica.Promote(n.shards.Dir())
		if err != nil {
			return nil, fmt.Errorf("node: promote: %w", err)
		}
		n.logf("promoted: replication epoch now %d", epoch)
	}
	if cfg.Follower {
		if n.receiver, err = replica.NewReceiver(n.shards, n.group, 0); err != nil {
			return nil, fmt.Errorf("node: follower setup: %w", err)
		}
		if cfg.Promote {
			// Promote through the live receiver so the client-refusal
			// gate drops too — a bare on-disk epoch bump would leave the
			// node serving nobody.
			if _, err := n.Promote(); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Addr != "" {
		meta, err := replica.LoadMeta(n.shards.Dir())
		if err != nil {
			return nil, fmt.Errorf("node: loading replication meta: %w", err)
		}
		sc := cfg.SenderConfig
		sc.Shards, sc.Epoch, sc.Logf = n.shards, meta.Epoch, n.logf
		if sc.DialTo == nil {
			sc.DialTo = func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			}
		}
		if n.sender, err = replica.NewSender(sc); err != nil {
			return nil, fmt.Errorf("node: replication sender: %w", err)
		}
		go n.sender.Run()
		n.logf("replicating to %s (epoch %d)", cfg.Addr, meta.Epoch)
	}

	if n.ln, err = net.Listen("tcp", cfg.Listen); err != nil {
		return nil, fmt.Errorf("node: listen: %w", err)
	}
	sc := cfg.ServerConfig
	sc.Handle, sc.Query, sc.Quarantine = n.handle, n.query, n.quarantine
	if n.receiver != nil {
		sc.ReplHello = n.receiver.HandleHello
		sc.ReplRecord = n.receiver.HandleRecord
		sc.NotReady = n.receiver.NotReady
	}
	n.srv = reliable.NewServer(sc)
	// Sticky fsync failures surface in both /metrics and /healthz.
	n.group.OnError = func(error) { n.srv.Metrics().StoreSyncErrors.Add(1) }
	n.addProbes()
	return n, nil
}

// Addr is the address the node listens on (the bound port of a ":0").
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Serve accepts connections until Close; it returns nil after a Close and
// the accept error otherwise.
func (n *Node) Serve() error {
	if err := n.srv.Serve(n.ln); !errors.Is(err, reliable.ErrServerClosed) {
		return err
	}
	return nil
}

// Promote turns a follower into the primary: the epoch bump is persisted,
// the old primary's records are fenced and clients are admitted. Returns
// the new epoch.
func (n *Node) Promote() (byte, error) {
	if n.receiver == nil {
		return 0, errors.New("node: only a follower can be promoted")
	}
	epoch, err := n.receiver.Promote()
	if err != nil {
		return 0, fmt.Errorf("node: promote: %w", err)
	}
	n.logf("promoted: replication epoch now %d", epoch)
	return epoch, nil
}

// Abort is Close without the drain: connections are cut, not finished — the
// crash a chaos harness induces, and the teardown of a node that failed to
// open.
func (n *Node) Abort() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return n.Close(ctx)
}

// Close shuts the node down in order: drain sessions until ctx expires
// (then cut them), stop the sender, persist the
// receiver's watermarks, flush the commit group, sync and close every
// shard. It is safe on a partly opened node; calls after the first do
// nothing.
func (n *Node) Close(ctx context.Context) (err error) {
	n.closeOnce.Do(func() { err = n.shutdown(ctx) })
	return err
}

func (n *Node) shutdown(ctx context.Context) error {
	var errs []error
	note := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	if n.srv != nil {
		note("draining sessions (remaining connections closed)", n.srv.Shutdown(ctx))
	}
	if n.ln != nil {
		n.ln.Close() // Shutdown only knows the listener once Serve ran
	}
	if n.sender != nil {
		n.sender.Stop()
		n.sender.Wait()
	}
	if n.receiver != nil {
		note("persisting watermarks", n.receiver.Close())
	}
	if n.group != nil {
		note("final group commit", n.group.Close())
	}
	if n.shards != nil {
		note("final fsync", n.shards.SyncAll())
		if tenants, err := n.shards.Tenants(); err == nil {
			n.logf("drained; %d tenant shards on disk, %d open", len(tenants), n.shards.OpenCount())
		}
		note("closing shards", n.shards.Close())
	}
	return errors.Join(errs...)
}

// addProbes registers the /healthz probes: health degrades (HTTP 503) on
// sticky fsync errors, a down replication link, a fenced (deposed) primary,
// or replication lag over ReplLagMax bytes.
func (n *Node) addProbes() {
	n.health.Add("store", func() (string, bool) {
		if err := n.group.Err(); err != nil {
			return fmt.Sprintf("fsync failing (%d rounds): %v", n.group.ErrCount(), err), false
		}
		return "", true
	})
	if n.sender != nil {
		lagMax := n.cfg.ReplLagMax
		n.health.Add("replication", func() (string, bool) {
			st := n.sender.Stats()
			switch {
			case st.Fenced:
				return "fenced by promoted follower", false
			case !st.LinkUp:
				return "link down", false
			case lagMax > 0 && st.LagBytes > lagMax:
				return fmt.Sprintf("lag %d bytes exceeds %d", st.LagBytes, lagMax), false
			}
			return fmt.Sprintf("lag %d bytes; %d records shipped from memory, %d read back from disk",
				st.LagBytes, st.FromMemory, st.FromDisk), true
		})
	}
	if n.receiver != nil {
		n.health.Add("role", func() (string, bool) {
			if n.receiver.Promoted() {
				return "primary (promoted)", true
			}
			return "follower", true
		})
	}
}

// Health is the node's /healthz: hand it to ops.NewServer.
func (n *Node) Health() *ops.Health { return &n.health }

// Snapshot is the /metrics body: the transport's counters plus storage and
// replication state.
type Snapshot struct {
	reliable.MetricsSnapshot
	OpenShards int                    `json:"open_shards,omitempty"`
	Storage    string                 `json:"storage"`
	Repl       *replica.SenderStats   `json:"repl_sender,omitempty"`
	Follower   *replica.ReceiverStats `json:"repl_receiver,omitempty"`
}

// Snapshot reads the node's counters; it stays valid after Close.
func (n *Node) Snapshot() Snapshot {
	out := Snapshot{MetricsSnapshot: n.srv.Metrics().Snapshot(), OpenShards: n.shards.OpenCount(), Storage: "dir " + n.shards.Dir()}
	if n.sender != nil {
		st := n.sender.Stats()
		out.Repl = &st
	}
	if n.receiver != nil {
		st := n.receiver.Stats()
		out.Follower = &st
	}
	return out
}

// gate finishes one frame's replication obligations after local commit: on
// a primary the ack is withheld until the follower confirms durability of
// the record Append handed to the sender.
func (n *Node) gate(tenant string, end int64) error {
	if n.sender == nil {
		return nil
	}
	if err := n.sender.WaitDurable(tenant, end, n.cfg.SyncTimeout); err != nil {
		// Nack: the client retransmits, and the retry waits again. The
		// frame is locally durable but unconfirmed on the follower, which
		// is not yet an ackable state.
		return fmt.Errorf("sync replication: %w", err)
	}
	return nil
}

// handle stores one data frame, as it arrived, in its tenant's shard. With
// Verify the frame is decoded first — before the shard is pinned, so a
// hostile frame costs a decode and not an open-store slot — and a failure
// is reported as ErrBadFrame so the session quarantines the payload; store
// failures are plain errors (nacked, retried, not quarantined). A frame in
// a retired dialect, which no query could read, is told by its envelope
// and quarantined with or without Verify.
func (n *Node) handle(tenant string, m netproto.Message) error {
	if m.Kind != netproto.KindCompressed {
		return fmt.Errorf("%w: unexpected kind %d", reliable.ErrBadFrame, m.Kind)
	}
	if _, err := core.Inspect(m.Payload); errors.Is(err, dbgc.ErrRetiredDialect) {
		return fmt.Errorf("%w: frame %d: %v", reliable.ErrBadFrame, m.Seq, err)
	}
	if n.cfg.Verify {
		if _, err := dbgc.DecompressWith(m.Payload, dbgc.DecompressOptions{Limits: n.cfg.Limits}); err != nil {
			return fmt.Errorf("%w: frame %d: %v", reliable.ErrBadFrame, m.Seq, err)
		}
	}
	st, err := n.shards.Acquire(tenant)
	if err != nil {
		return fmt.Errorf("tenant %s store: %w", tenant, err)
	}
	defer n.shards.Release(tenant)
	// A retransmit of a frame the shard already holds on disk — its ack
	// was lost, or the follower was unreachable — is not appended again:
	// the commit and the gate then wait on the stored copy. A copy no
	// successful fsync has covered is appended afresh.
	end, err := st.AppendOnce(m.Seq, store.KindCompressed, m.Payload)
	if err != nil {
		return err
	}
	if err := n.group.Commit(st); err != nil {
		return err
	}
	// Local durability first, then the replication gate: a primary's ack
	// proves the frame is on both nodes' disks.
	return n.gate(tenant, end)
}

// query answers a spatial query from the tenant's shard with the pruning
// region decoder, under the same decode limits as ingest-time verification
// (payloads are stored unverified by default, so the query is where a
// hostile frame is first decoded). A frame the region decoder refuses for
// damage — not for its size — is answered from the sections that still
// decode, filtered to the box: salvage costs nothing at ingest and loses
// nothing on disk.
func (n *Node) query(tenant string, q netproto.Query) ([]byte, error) {
	st, err := n.shards.Acquire(tenant)
	if err != nil {
		return nil, err
	}
	defer n.shards.Release(tenant)
	payload, kind, err := st.Get(q.Seq)
	switch {
	case err != nil:
		return nil, err
	case kind == store.KindQuarantined:
		return nil, fmt.Errorf("frame %d is quarantined", q.Seq)
	case kind != store.KindCompressed:
		return nil, fmt.Errorf("unknown stored kind %d", kind)
	}
	opts := dbgc.DecompressOptions{Limits: n.cfg.Limits}
	pts, err := dbgc.DecompressRegionWith(payload, q.Box, opts)
	if err == nil {
		return encodeRaw(pts), nil
	}
	if errors.Is(err, dbgc.ErrDecodeLimit) {
		return nil, err
	}
	pts, reports, err := dbgc.DecompressPartial(payload, opts)
	if err != nil {
		return nil, err
	}
	for _, rep := range reports {
		if errors.Is(rep.Err, dbgc.ErrDecodeLimit) {
			return nil, rep.Err
		}
		if rep.Err != nil {
			n.logf("%s frame %d: %s section damaged, %d of its points answer queries: %v", tenant, q.Seq, rep.Section, rep.Points, rep.Err)
		}
	}
	return encodeRaw(slices.DeleteFunc(pts, func(p dbgc.Point) bool { return !q.Box.Contains(p) })), nil
}

// quarantine preserves a rejected payload, whole and under its own
// sequence number, for forensics — unless a good record for that number
// already exists (a corrupt retransmit must not shadow a stored frame).
func (n *Node) quarantine(tenant string, m netproto.Message, reason string) {
	st, err := n.shards.Acquire(tenant)
	if err != nil {
		n.logf("%s frame %d: quarantine store unavailable: %v", tenant, m.Seq, err)
		return
	}
	defer n.shards.Release(tenant)
	// One step under the store's lock: the good copy may be in a handler of
	// this very session right now.
	switch written, err := st.Quarantine(m.Seq, m.Payload); {
	case err != nil:
		n.logf("%s frame %d: quarantine failed: %v", tenant, m.Seq, err)
	case written:
		n.logf("%s frame %d: quarantined %d bytes (%s)", tenant, m.Seq, len(m.Payload), reason)
	}
}

func encodeRaw(pc dbgc.PointCloud) []byte {
	var buf bytes.Buffer
	if err := lidar.WriteBin(&buf, pc); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}
