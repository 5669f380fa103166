// Command dbgc-server is the server half of the DBGC system (Figure 2): it
// receives compressed frames from clients over TCP and stores each bit
// sequence B as it arrived; it decodes only to answer a query, and a stored
// frame that no longer decodes whole is answered from the sections that do.
//
// Frames are acknowledged per the reliable transport protocol: a frame is
// acked once stored and nacked (and quarantined, whole, under its own
// sequence number) if its payload arrived corrupt — or, with -verify, if it
// does not decode under -max-points / -mem-budget; without -verify such a
// frame is acked and refused when it is read. A client disconnect or hostile
// payload never disturbs other connections. SIGINT/SIGTERM drain active
// sessions before exit.
//
// Each tenant announced by a client hello gets its own store shard under
// -store-dir (lazily opened, the open-file count bounded by -open-stores;
// a client that sends no hello lands in the "default" tenant's shard);
// admission control (-tenants, -max-sessions, -sessions-per-tenant),
// per-tenant ingest budgets, and load shedding (-shed-high/-shed-low) keep
// one noisy tenant from starving the rest. Every ack means durable: a frame
// is acked after a group-committed fsync, which concurrent frames of every
// tenant share.
//
// Replication: -replica-of ADDR runs this node as the primary and streams
// every stored record to the follower listening at ADDR, withholding each
// client ack until the follower has the frame durably (quorum of 2). While
// the follower is unreachable the primary still stores every frame but
// nacks it after -sync-timeout; the follower catches up from disk once the
// link is back. To run on one disk, leave -replica-of out. -follower runs
// this node as the follower: it accepts only replication traffic — client
// hellos and frames are refused with a busy hint so multi-address clients
// rotate to the primary — until it is promoted. -promote bumps the
// replication epoch at startup, fencing the deposed primary; restart the
// surviving follower with -promote (keep -follower to fence stray
// replication from the old epoch, drop it to run as a plain server) to take
// over. /healthz reports degraded (HTTP 503) on replication lag over
// -repl-lag-max, a down replication link, or sticky fsync errors.
//
// Usage:
//
//	dbgc-server [-listen :7045] [-store-dir frames]
//	            [-verify] [-max-points n] [-mem-budget bytes]
//	            [-tenants n] [-max-sessions n] [-sessions-per-tenant n]
//	            [-queue-depth n] [-tenant-budget n] [-open-stores n]
//	            [-shed-high n] [-shed-low n] [-retry-after 200ms]
//	            [-replica-of addr] [-follower] [-promote]
//	            [-sync-timeout 5s] [-scrub-interval 1m] [-repl-lag-max n]
//	            [-http :7046]
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
)

// options is the command line: the node's configuration, and the two
// settings main keeps for itself.
type options struct {
	node.Config
	httpAddr     string
	drainTimeout time.Duration
}

// parseFlags defines the server's flags on fs and parses args into the
// configuration node.Open validates.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	sc, rc := &o.ServerConfig, &o.SenderConfig
	fs.StringVar(&o.Listen, "listen", ":7045", "address to listen on")
	fs.StringVar(&o.Dir, "store-dir", "frames", "store directory: one shard file per tenant")
	fs.IntVar(&o.OpenStores, "open-stores", 64, "max concurrently open shard files (LRU-evicted)")
	fs.BoolVar(&o.Verify, "verify", false, "decode every frame under the decode limits before storing it: a frame no query could decode is nacked and quarantined instead of acked (the stored bytes are B either way)")
	fs.Int64Var(&o.Limits.MaxPoints, "max-points", dbgc.DefaultDecodeLimits().MaxPoints, "decode limit: maximum points per frame (0 = unlimited)")
	fs.Int64Var(&o.Limits.MemBudget, "mem-budget", dbgc.DefaultDecodeLimits().MemBudget, "decode limit: decoded-memory budget per frame in bytes (0 = unlimited)")
	fs.IntVar(&sc.MaxTenants, "tenants", 0, "max concurrently active tenants (0 = unlimited)")
	fs.IntVar(&sc.MaxSessions, "max-sessions", 0, "max concurrent connections server-wide (0 = unlimited)")
	fs.IntVar(&sc.MaxSessionsPerTenant, "sessions-per-tenant", 0, "max concurrent sessions per tenant (0 = unlimited)")
	fs.IntVar(&sc.QueueDepth, "queue-depth", 16, "per-session ingest queue depth before busy nacks (the queued frames are handled concurrently)")
	fs.IntVar(&sc.TenantBudget, "tenant-budget", 64, "per-tenant in-flight frame budget across all its sessions")
	fs.IntVar(&sc.ShedHighWater, "shed-high", 0, "total in-flight frames above which the newest tenants are shed (0 = off)")
	fs.IntVar(&sc.ShedLowWater, "shed-low", 0, "in-flight level at which shed tenants are readmitted (default shed-high/2)")
	fs.DurationVar(&sc.RetryAfter, "retry-after", 200*time.Millisecond, "retry hint attached to busy nacks")
	fs.DurationVar(&sc.StallTimeout, "stall-timeout", 0, "cut sessions that stay backpressured this long without draining (0 = never)")
	fs.StringVar(&rc.Addr, "replica-of", "", "run as primary: replicate every stored record to the follower at this address and ack a frame once it is durable on both")
	fs.BoolVar(&o.Follower, "follower", false, "run as follower: accept replication, refuse client traffic until promoted")
	fs.BoolVar(&o.Promote, "promote", false, "bump the replication epoch at startup (failover: fences the deposed primary)")
	fs.DurationVar(&o.SyncTimeout, "sync-timeout", node.DefaultSyncTimeout, "with -replica-of: nack a frame if the follower's durable ack takes longer than this")
	fs.DurationVar(&rc.ScrubInterval, "scrub-interval", time.Minute, "with -replica-of: anti-entropy scrub period (0 = off)")
	fs.Int64Var(&o.ReplLagMax, "repl-lag-max", 32<<20, "with -replica-of: /healthz degrades when replication lag exceeds this many bytes")
	fs.StringVar(&o.httpAddr, "http", "", "serve /healthz and /metrics on this address (empty = disabled)")
	fs.DurationVar(&sc.ReadTimeout, "read-timeout", 60*time.Second, "idle timeout per connection")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long to wait for sessions to finish on shutdown")
	sc.Logf = log.Printf
	return o, fs.Parse(args)
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.Open(o.Config)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	if o.httpAddr != "" {
		httpSrv = ops.NewServer(o.httpAddr, n.Health(), func() any { return n.Snapshot() })
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("http: %v", err)
			}
		}()
		log.Printf("ops endpoint on http://%s (/healthz, /metrics)", o.httpAddr)
	}

	log.Printf("dbgc-server listening on %s, storage dir %s (verify=%v)", n.Addr(), o.Dir, o.Verify)
	go func() {
		if err := n.Serve(); err != nil {
			log.Printf("serve: %v", err)
			stop()
		}
	}()

	<-ctx.Done()
	log.Printf("signal received, draining sessions (up to %v)", o.drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := n.Close(sctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
}
