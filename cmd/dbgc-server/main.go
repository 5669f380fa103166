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
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbgc"
	"dbgc/internal/node"
	"dbgc/internal/ops"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
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
	queueDepth := flag.Int("queue-depth", 16, "per-session ingest queue depth before busy nacks (the queued frames are handled concurrently)")
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

	n, err := node.Open(node.Config{
		Listen:     *listen,
		Dir:        *storeDir,
		OpenStores: *openStores,
		Fsync:      *fsync,
		Decompress: *decompress,
		Partial:    *partial,
		Limits:     dbgc.DecodeLimits{MaxPoints: *maxPoints, MemBudget: *memBudget},
		ServerConfig: reliable.ServerConfig{
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
		},
		Follower:     *followerMode,
		Promote:      *promote,
		WMEvery:      *wmEvery,
		SenderConfig: replica.SenderConfig{Addr: *replicaOf, ScrubInterval: *scrubInterval},
		SyncRepl:     *syncRepl,
		SyncTimeout:  *syncTimeout,
		ReplLagMax:   *replLagMax,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = ops.NewServer(*httpAddr, n.Health(), func() any { return n.Snapshot() })
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("ops endpoint on http://%s (/healthz, /metrics)", *httpAddr)
	}

	log.Printf("dbgc-server listening on %s, storage dir %s (decompress=%v, fsync=%s)",
		n.Addr(), *storeDir, *decompress, *fsync)
	go func() {
		if err := n.Serve(); err != nil {
			log.Printf("serve: %v", err)
			stop()
		}
	}()

	<-ctx.Done()
	log.Printf("signal received, draining sessions (up to %v)", *drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := n.Close(sctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
}
