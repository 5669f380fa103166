// Command dbgc-server is the server half of the DBGC system (Figure 2): it
// receives compressed frames from clients over TCP, optionally decompresses
// them, and stores them in a frame store.
//
// Frames are acknowledged per the reliable transport protocol: a frame is
// acked once stored, nacked (and quarantined) if its payload is corrupt or
// undecodable, and a client disconnect or hostile payload never disturbs
// other connections. SIGINT/SIGTERM drain active sessions before exit.
//
// Each tenant announced by a client hello gets its own store shard under
// -store-dir (lazily opened, the open-file count bounded by -open-stores;
// a client that sends no hello lands in the "default" tenant's shard);
// admission control (-tenants, -max-sessions, -sessions-per-tenant),
// per-tenant ingest budgets, and load shedding (-shed-high/-shed-low) keep
// one noisy tenant from starving the rest. -fsync always batches fsyncs
// across tenants via group commit: every ack still means durable, but
// concurrent frames share fsync rounds.
//
// Replication: -replica-of ADDR runs this node as
// the primary and streams every stored record to the follower listening at
// ADDR; -sync-repl additionally withholds each client ack until the
// follower has the frame durably (quorum of 2). -follower runs this node
// as the follower: it accepts only replication traffic — client hellos and
// frames are refused with a busy hint so multi-address clients rotate to
// the primary — until it is promoted. -promote bumps the replication epoch
// at startup, fencing the deposed primary; restart the surviving follower
// with -promote (keep -follower to fence stray replication from the old
// epoch, drop it to run as a plain server) to take over. /healthz reports
// degraded (HTTP 503) on replication lag over -repl-lag-max, a down
// replication link, or sticky fsync errors.
//
// Usage:
//
//	dbgc-server [-listen :7045] [-store-dir frames]
//	            [-decompress] [-partial]
//	            [-max-points n] [-mem-budget bytes]
//	            [-fsync off|always|<interval>]
//	            [-tenants n] [-max-sessions n] [-sessions-per-tenant n]
//	            [-queue-depth n] [-tenant-budget n] [-open-stores n]
//	            [-shed-high n] [-shed-low n] [-retry-after 200ms]
//	            [-replica-of addr] [-follower] [-promote] [-sync-repl]
//	            [-sync-timeout 5s] [-scrub-interval 1m] [-repl-lag-max n]
//	            [-wm-every n] [-http :7046]
//	            [-read-timeout 60s] [-drain-timeout 10s]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/ops"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

func main() {
	listen := flag.String("listen", ":7045", "address to listen on")
	storeDir := flag.String("store-dir", "frames", "store directory: one shard file per tenant")
	openStores := flag.Int("open-stores", 64, "max concurrently open shard files (LRU-evicted)")
	decompress := flag.Bool("decompress", false, "decompress frames before storing (default stores B directly)")
	partial := flag.Bool("partial", false, "with -decompress: store the intact sections of damaged frames and quarantine the rest instead of nacking")
	maxPoints := flag.Int64("max-points", dbgc.DefaultDecodeLimits().MaxPoints, "decode limit: maximum points per frame (0 = unlimited)")
	memBudget := flag.Int64("mem-budget", dbgc.DefaultDecodeLimits().MemBudget, "decode limit: decoded-memory budget per frame in bytes (0 = unlimited)")
	fsync := flag.String("fsync", "off", `durability mode: "off" (OS decides), "always" (group-committed sync before every ack), or a periodic interval like "500ms"`)
	maxTenants := flag.Int("tenants", 0, "max concurrently active tenants (0 = unlimited)")
	maxSessions := flag.Int("max-sessions", 0, "max concurrent connections server-wide (0 = unlimited)")
	sessionsPerTenant := flag.Int("sessions-per-tenant", 0, "max concurrent sessions per tenant (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 16, "per-session ingest queue depth before busy nacks")
	tenantBudget := flag.Int("tenant-budget", 64, "per-tenant in-flight frame budget across all its sessions")
	shedHigh := flag.Int("shed-high", 0, "total in-flight frames above which the newest tenants are shed (0 = off)")
	shedLow := flag.Int("shed-low", 0, "in-flight level at which shed tenants are readmitted (default shed-high/2)")
	retryAfter := flag.Duration("retry-after", 200*time.Millisecond, "retry hint attached to busy nacks")
	stallTimeout := flag.Duration("stall-timeout", 0, "cut sessions that stay backpressured this long without draining (0 = never)")
	replicaOf := flag.String("replica-of", "", "run as primary, replicating every stored record to the follower at this address")
	followerMode := flag.Bool("follower", false, "run as follower: accept replication, refuse client traffic until promoted")
	promote := flag.Bool("promote", false, "bump the replication epoch at startup (failover: fences the deposed primary)")
	syncRepl := flag.Bool("sync-repl", false, "with -replica-of: withhold client acks until the follower has each frame durably (quorum 2)")
	syncTimeout := flag.Duration("sync-timeout", 5*time.Second, "with -sync-repl: nack a frame if the follower ack takes longer than this")
	scrubInterval := flag.Duration("scrub-interval", time.Minute, "with -replica-of: anti-entropy scrub period (0 = off)")
	replLagMax := flag.Int64("repl-lag-max", 32<<20, "with -replica-of: /healthz degrades when replication lag exceeds this many bytes")
	wmEvery := flag.Int("wm-every", 32, "with -follower: persist watermarks every this many applied records")
	httpAddr := flag.String("http", "", "serve /healthz and /metrics on this address (empty = disabled)")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "idle timeout per connection")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to wait for sessions to finish on shutdown")
	flag.Parse()

	syncAlways, syncEvery, err := parseFsync(*fsync)
	if err != nil {
		log.Fatalf("bad -fsync: %v", err)
	}

	shards, err := store.OpenShards(*storeDir, *openStores)
	if err != nil {
		log.Fatalf("opening storage: %v", err)
	}
	defer shards.Close()

	// One commit group batches fsyncs across every tenant shard: "always"
	// blocks each frame on its group round (ack ⇒ durable), an interval
	// makes rounds periodic, off disables the group entirely.
	var group *store.Group
	if syncAlways || syncEvery > 0 {
		group = store.NewGroup(syncEvery)
		defer group.Close()
	}

	// Replication roles. Promotion happens before anything serves: the
	// epoch bump must be durable before the first client frame is acked.
	if *replicaOf != "" && *followerMode {
		log.Fatalf("-replica-of and -follower are mutually exclusive")
	}
	if *promote && !*followerMode {
		epoch, err := replica.Promote(shards.Dir())
		if err != nil {
			log.Fatalf("promote: %v", err)
		}
		log.Printf("promoted: replication epoch now %d", epoch)
	}
	var receiver *replica.Receiver
	var sender *replica.Sender
	if *followerMode {
		receiver, err = replica.NewReceiver(shards, group, *wmEvery)
		if err != nil {
			log.Fatalf("follower setup: %v", err)
		}
		defer receiver.Close()
		if *promote {
			// Promote through the live receiver so the client-refusal
			// gate drops too — a bare on-disk epoch bump would leave the
			// node serving nobody.
			epoch, err := receiver.Promote()
			if err != nil {
				log.Fatalf("promote: %v", err)
			}
			log.Printf("promoted: replication epoch now %d", epoch)
		}
	}
	if *replicaOf != "" {
		meta, err := replica.LoadMeta(shards.Dir())
		if err != nil {
			log.Fatalf("loading replication meta: %v", err)
		}
		sender, err = replica.NewSender(replica.SenderConfig{
			Shards: shards,
			Addr:   *replicaOf,
			DialTo: func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			},
			Epoch:         meta.Epoch,
			ScrubInterval: *scrubInterval,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("replication sender: %v", err)
		}
		go sender.Run()
		log.Printf("replicating to %s (epoch %d, sync=%v)", *replicaOf, meta.Epoch, *syncRepl)
	}
	var repl *replLink
	if sender != nil {
		repl = &replLink{sender: sender, syncMode: *syncRepl, timeout: *syncTimeout}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	limits := dbgc.DecodeLimits{MaxPoints: *maxPoints, MemBudget: *memBudget}
	cfg := reliable.ServerConfig{
		Handle:               handler(shards, group, *decompress, *partial, syncAlways, limits, repl),
		Query:                querier(shards, limits),
		Quarantine:           quarantiner(shards),
		ReadTimeout:          *readTimeout,
		MaxSessions:          *maxSessions,
		MaxTenants:           *maxTenants,
		MaxSessionsPerTenant: *sessionsPerTenant,
		QueueDepth:           *queueDepth,
		TenantBudget:         *tenantBudget,
		RetryAfter:           *retryAfter,
		StallTimeout:         *stallTimeout,
		ShedHighWater:        *shedHigh,
		ShedLowWater:         *shedLow,
		Logf:                 log.Printf,
	}
	if receiver != nil {
		cfg.ReplHello = receiver.HandleHello
		cfg.ReplRecord = receiver.HandleRecord
		cfg.NotReady = receiver.NotReady
	}
	srv := reliable.NewServer(cfg)
	if group != nil {
		// Sticky fsync failures surface in both /metrics and /healthz.
		group.OnError = func(error) { srv.Metrics().StoreSyncErrors.Add(1) }
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = opsServer(*httpAddr, srv, shards, group, sender, receiver, *replLagMax)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("ops endpoint on http://%s (/healthz, /metrics)", *httpAddr)
	}

	log.Printf("dbgc-server listening on %s, storage dir %s (decompress=%v, fsync=%s)",
		ln.Addr(), shards.Dir(), *decompress, *fsync)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, reliable.ErrServerClosed) {
			log.Printf("serve: %v", err)
			stop()
		}
	}()

	<-ctx.Done()
	log.Printf("signal received, draining sessions (up to %v)", *drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("shutdown: %v (remaining connections closed)", err)
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	if sender != nil {
		sender.Stop()
		sender.Wait()
	}
	if group != nil {
		if err := group.Close(); err != nil {
			log.Printf("final group commit: %v", err)
		}
	}
	if err := shards.SyncAll(); err != nil {
		log.Printf("final fsync: %v", err)
	}
	if tenants, err := shards.Tenants(); err != nil {
		log.Printf("drained; shard summary unavailable: %v", err)
	} else {
		log.Printf("drained; %d tenant shards on disk, %d open", len(tenants), shards.OpenCount())
	}
}

// parseFsync maps the -fsync flag onto (sync before every ack, periodic
// interval).
func parseFsync(mode string) (always bool, every time.Duration, err error) {
	switch mode {
	case "", "off":
		return false, 0, nil
	case "always":
		return true, 0, nil
	default:
		d, err := time.ParseDuration(mode)
		if err != nil || d <= 0 {
			return false, 0, fmt.Errorf("want off, always, or a positive duration, got %q", mode)
		}
		return false, d, nil
	}
}

// replLink carries the replication sender into the frame handler: every
// stored frame kicks the ship loop, and in sync mode the ack is withheld
// until the follower confirms durability.
type replLink struct {
	sender   *replica.Sender
	syncMode bool
	timeout  time.Duration
}

// gate finishes one frame's replication obligations after local commit.
func (r *replLink) gate(tenant string, end int64) error {
	if r == nil {
		return nil
	}
	r.sender.Kick()
	if !r.syncMode {
		return nil
	}
	if err := r.sender.WaitDurable(tenant, end, r.timeout); err != nil {
		// Nack: the client retransmits, and the retry waits again. The
		// frame is locally durable but unconfirmed on the follower — in
		// sync mode that is not yet an ackable state.
		return fmt.Errorf("sync replication: %w", err)
	}
	return nil
}

// opsServer exposes /healthz and /metrics for monitoring and the load
// harness. Health degrades (HTTP 503) on sticky fsync errors, a down
// replication link, a fenced (deposed) primary, or replication lag over
// lagMax bytes.
func opsServer(addr string, srv *reliable.Server, shards *store.Shards, group *store.Group,
	sender *replica.Sender, receiver *replica.Receiver, lagMax int64) *http.Server {
	health := &ops.Health{}
	if group != nil {
		health.Add("store", func() (string, bool) {
			if err := group.Err(); err != nil {
				return fmt.Sprintf("fsync failing (%d rounds): %v", group.ErrCount(), err), false
			}
			return "", true
		})
	}
	if sender != nil {
		health.Add("replication", func() (string, bool) {
			st := sender.Stats()
			switch {
			case st.Fenced:
				return "fenced by promoted follower", false
			case !st.LinkUp:
				return "link down", false
			case lagMax > 0 && st.LagBytes > lagMax:
				return fmt.Sprintf("lag %d bytes exceeds %d", st.LagBytes, lagMax), false
			}
			return fmt.Sprintf("lag %d bytes", st.LagBytes), true
		})
	}
	if receiver != nil {
		health.Add("role", func() (string, bool) {
			if receiver.Promoted() {
				return "primary (promoted)", true
			}
			return "follower", true
		})
	}
	metrics := func() any {
		out := struct {
			reliable.MetricsSnapshot
			OpenShards int                    `json:"open_shards,omitempty"`
			Storage    string                 `json:"storage"`
			Repl       *replica.SenderStats   `json:"repl_sender,omitempty"`
			Follower   *replica.ReceiverStats `json:"repl_receiver,omitempty"`
		}{MetricsSnapshot: srv.Metrics().Snapshot(), OpenShards: shards.OpenCount(), Storage: "dir " + shards.Dir()}
		if sender != nil {
			st := sender.Stats()
			out.Repl = &st
		}
		if receiver != nil {
			st := receiver.Stats()
			out.Follower = &st
		}
		return out
	}
	return ops.NewServer(addr, health, metrics)
}

// commit makes one frame durable according to the fsync mode: group-commit
// (blocking) for always, dirty-mark for interval mode, nothing when off.
func commit(group *store.Group, st *store.Store, always bool) error {
	switch {
	case group == nil:
		return nil
	case always:
		return group.Commit(st)
	default:
		group.Async(st)
		return nil
	}
}

// handler stores one data frame in its tenant's shard, decompressing first
// when asked. Decode failures are reported as ErrBadFrame so the session
// quarantines the payload; store failures are plain errors (nacked,
// retried, not quarantined). In partial mode a frame with some damaged
// sections stores what decoded and reports a PartialFrameError so the
// session quarantines only the damaged bytes and still acks.
func handler(shards *store.Shards, group *store.Group, decompress, partial, syncAlways bool, limits dbgc.DecodeLimits, repl *replLink) func(tenant string, m netproto.Message) error {
	opts := dbgc.DecompressOptions{Limits: limits}
	return func(tenant string, m netproto.Message) error {
		st, err := shards.Acquire(tenant)
		if err != nil {
			return fmt.Errorf("tenant %s store: %w", tenant, err)
		}
		defer shards.Release(tenant)
		var end int64
		switch m.Kind {
		case netproto.KindCompressed:
			if decompress && partial {
				pc, reports, err := dbgc.DecompressPartial(m.Payload, opts)
				if err != nil {
					return fmt.Errorf("%w: frame %d: %v", reliable.ErrBadFrame, m.Seq, err)
				}
				var damaged []byte
				var reasons []string
				for _, rep := range reports {
					if rep.Err != nil {
						damaged = append(damaged, rep.Raw...)
						reasons = append(reasons, fmt.Sprintf("%s: %v", rep.Section, rep.Err))
					}
				}
				if end, err = st.Append(m.Seq, store.KindDecompressed, encodeRaw(pc)); err != nil {
					return err
				}
				if len(reasons) == 0 {
					log.Printf("%s frame %d: %d bytes -> %d points, stored decompressed", tenant, m.Seq, len(m.Payload), len(pc))
					break
				}
				log.Printf("%s frame %d: partial recovery, stored %d points", tenant, m.Seq, len(pc))
				if err := commit(group, st, syncAlways); err != nil {
					return err
				}
				if err := repl.gate(tenant, end); err != nil {
					return err
				}
				return &reliable.PartialFrameError{Reason: strings.Join(reasons, "; "), Damaged: damaged}
			} else if decompress {
				pc, err := dbgc.DecompressWith(m.Payload, opts)
				if err != nil {
					return fmt.Errorf("%w: frame %d: %v", reliable.ErrBadFrame, m.Seq, err)
				}
				if end, err = st.Append(m.Seq, store.KindDecompressed, encodeRaw(pc)); err != nil {
					return err
				}
				log.Printf("%s frame %d: %d bytes -> %d points, stored decompressed", tenant, m.Seq, len(m.Payload), len(pc))
			} else {
				if end, err = st.Append(m.Seq, store.KindCompressed, m.Payload); err != nil {
					return err
				}
				log.Printf("%s frame %d: stored %d compressed bytes", tenant, m.Seq, len(m.Payload))
			}
		case netproto.KindRaw:
			if end, err = st.Append(m.Seq, store.KindDecompressed, m.Payload); err != nil {
				return err
			}
			log.Printf("%s frame %d: stored %d raw bytes", tenant, m.Seq, len(m.Payload))
		default:
			return fmt.Errorf("%w: unexpected kind %d", reliable.ErrBadFrame, m.Kind)
		}
		if err := commit(group, st, syncAlways); err != nil {
			return err
		}
		// Local durability first, then the replication gate: a sync-mode
		// ack proves the frame is on both nodes' disks.
		return repl.gate(tenant, end)
	}
}

// querier answers spatial queries from the tenant's shard.
func querier(shards *store.Shards, limits dbgc.DecodeLimits) func(tenant string, q netproto.Query) ([]byte, error) {
	return func(tenant string, q netproto.Query) ([]byte, error) {
		st, err := shards.Acquire(tenant)
		if err != nil {
			return nil, err
		}
		defer shards.Release(tenant)
		pts, err := answerQuery(st, q, limits)
		if err != nil {
			return nil, err
		}
		log.Printf("%s query frame %d: %d points in box", tenant, q.Seq, len(pts))
		return encodeRaw(pts), nil
	}
}

// quarantiner preserves a rejected payload for forensics — unless a good
// record for that sequence number already exists (a corrupt retransmit
// must not shadow a stored frame). Damaged sections of a partially
// recovered frame land under the sequence number with the top bit set, so
// they coexist with the frame's stored good sections.
func quarantiner(shards *store.Shards) func(tenant string, m netproto.Message, reason string) {
	return func(tenant string, m netproto.Message, reason string) {
		st, err := shards.Acquire(tenant)
		if err != nil {
			log.Printf("%s frame %d: quarantine store unavailable: %v", tenant, m.Seq, err)
			return
		}
		defer shards.Release(tenant)
		if strings.HasPrefix(reason, "partial: ") {
			key := m.Seq | 1<<63
			if err := st.Put(key, store.KindQuarantined, m.Payload); err != nil {
				log.Printf("%s frame %d: quarantining damaged sections failed: %v", tenant, m.Seq, err)
				return
			}
			log.Printf("%s frame %d: quarantined %d damaged section bytes under key %#x (%s)",
				tenant, m.Seq, len(m.Payload), key, reason)
			return
		}
		if kind, ok := st.Kind(m.Seq); ok && kind != store.KindQuarantined {
			return
		}
		if err := st.Put(m.Seq, store.KindQuarantined, m.Payload); err != nil {
			log.Printf("%s frame %d: quarantine failed: %v", tenant, m.Seq, err)
			return
		}
		log.Printf("%s frame %d: quarantined %d bytes (%s)", tenant, m.Seq, len(m.Payload), reason)
	}
}

// answerQuery resolves a spatial query against the store: compressed
// frames use the pruning region decoder, under the same decode limits as
// ingest-time decoding (payloads are stored unvalidated by default, so the
// query is where a hostile frame is first decoded); raw frames decode and
// filter.
func answerQuery(st *store.Store, q netproto.Query, limits dbgc.DecodeLimits) (dbgc.PointCloud, error) {
	payload, kind, err := st.Get(q.Seq)
	if err != nil {
		return nil, err
	}
	switch kind {
	case store.KindCompressed:
		return dbgc.DecompressRegionWith(payload, q.Box, dbgc.DecompressOptions{Limits: limits})
	case store.KindDecompressed:
		pc, err := lidar.ReadBin(bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		var out dbgc.PointCloud
		for _, p := range pc {
			if q.Box.Contains(p) {
				out = append(out, p)
			}
		}
		return out, nil
	case store.KindQuarantined:
		return nil, fmt.Errorf("frame %d is quarantined", q.Seq)
	default:
		return nil, fmt.Errorf("unknown stored kind %d", kind)
	}
}

func encodeRaw(pc dbgc.PointCloud) []byte {
	var buf writerBuf
	if err := lidar.WriteBin(&buf, pc); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.b
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
