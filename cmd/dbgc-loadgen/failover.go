// The -failover scenario: a two-node replicated deployment under chaos.
//
// A primary and a follower run in-process — two node.Nodes, configured as
// dbgc-server -replica-of ADDR -sync-repl and dbgc-server -follower would be
// — each on its own crash-prone faultnet.Disk shard set. The primary replicates every committed record
// to the follower over a fault-injected link (bit flips, drops, torn
// writes) in sync mode: a client ack is withheld until the record is
// durable on BOTH nodes. Multi-address clients stream frames against
// [primary, follower], recording exactly which sequence numbers were
// acknowledged.
//
// Mid-run the harness (1) severs the replication link and asserts the
// primary's /healthz degrades, then heals it and asserts recovery;
// (2) kills the primary the hard way — disk crash under live traffic, no
// drain — promotes the follower, and lets the clients fail over to it.
//
// The contract under test: after the follower is cold-reopened at the
// end, every sync-acked frame must be present and intact there. A frame
// acked before the kill was follower-durable by the sync gate; a frame
// acked after it was written by the promoted follower itself. Any loss
// is fatal.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"dbgc/internal/faultnet"
	"dbgc/internal/node"
	"dbgc/internal/ops"
	"dbgc/internal/replica"
)

// failoverReport is the failover-specific section of the -out file.
type failoverReport struct {
	PromotedEpoch     int                   `json:"promoted_epoch"`
	KillAtFrames      int64                 `json:"kill_at_frames"`
	FirstAckAfterMs   float64               `json:"first_ack_after_promote_ms"`
	ClientFailovers   int                   `json:"client_failovers"`
	HealthDegradedMs  float64               `json:"healthz_degraded_after_ms"`
	HealthRecoveredMs float64               `json:"healthz_recovered_after_ms"`
	Sender            replica.SenderStats   `json:"primary_sender"`
	Receiver          replica.ReceiverStats `json:"follower_receiver"`
	AckedFrames       int                   `json:"sync_acked_frames"`
}

// chaosLink is the replication link: every connection runs through a
// faultnet injector, and the harness can sever it (current connections
// die, new dials fail) and heal it again.
type chaosLink struct {
	inj *faultnet.Injector

	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{}
}

func (l *chaosLink) dial(addr string) (net.Conn, error) {
	l.mu.Lock()
	down := l.severed
	l.mu.Unlock()
	if down {
		return nil, fmt.Errorf("repl link severed")
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	wc := l.inj.Wrap(c)
	l.mu.Lock()
	if l.severed {
		l.mu.Unlock()
		wc.Close()
		return nil, fmt.Errorf("repl link severed")
	}
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	l.conns[wc] = struct{}{}
	l.mu.Unlock()
	return wc, nil
}

// sever fails the link: live connections are closed, new dials refused.
func (l *chaosLink) sever() {
	l.mu.Lock()
	l.severed = true
	for c := range l.conns {
		c.Close()
	}
	l.conns = make(map[net.Conn]struct{})
	l.mu.Unlock()
}

func (l *chaosLink) heal() {
	l.mu.Lock()
	l.severed = false
	l.mu.Unlock()
}

// awaitHealth polls url/healthz until its status matches wantOK (200 for
// ok, anything else for degraded) or the limit passes.
func awaitHealth(url string, wantOK bool, limit time.Duration) (time.Duration, bool) {
	t0 := time.Now()
	for time.Since(t0) < limit {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if ok == wantOK {
				return time.Since(t0), true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return limit, false
}

func runFailover(o options) (benchResult, error) {
	var tot totals

	// Follower: client ingest is refused busy until promotion, so
	// multi-address clients bounce off it and stick with the primary.
	follower, err := openNode(node.Config{
		Listen: "127.0.0.1:0", Dir: filepath.Join(o.dir, "follower"),
		Follower: true, WMEvery: 16,
	}, o.seed^0x5f5f, o)
	if err != nil {
		return benchResult{}, fmt.Errorf("starting follower: %w", err)
	}
	defer func() { follower.Abort() }()

	// Primary: sync-replication gate in the handler, sender tailing the
	// shards over the chaos link.
	link := &chaosLink{inj: faultnet.New(faultnet.Config{
		Seed:        o.seed ^ 0x1ea4,
		FlipProb:    o.flip,
		DropProb:    o.drop,
		PartialProb: o.tear,
	})}
	primary, err := openNode(node.Config{
		Listen: "127.0.0.1:0", Dir: filepath.Join(o.dir, "primary"),
		SenderConfig: replica.SenderConfig{
			Addr:          follower.Addr(),
			DialTo:        link.dial,
			Poll:          2 * time.Millisecond,
			ScrubInterval: 750 * time.Millisecond,
			MaxInFlight:   64,
			Seed:          o.seed,
		},
		SyncRepl:    true,
		SyncTimeout: o.syncTimeout,
		ReplLagMax:  32 << 20,
	}, o.seed, o)
	if err != nil {
		return benchResult{}, fmt.Errorf("starting primary: %w", err)
	}
	defer func() { primary.Abort() }()

	// The primary's ops endpoint, as dbgc-server -http serves it: the
	// node's own probes, asserted on during the injected fault window.
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return benchResult{}, fmt.Errorf("primary ops server: %w", err)
	}
	opsSrv := ops.NewServer("", primary.Health(), func() any { return primary.Snapshot() })
	go opsSrv.Serve(opsLn)
	defer opsSrv.Close()
	opsURL := "http://" + opsLn.Addr().String()
	log.Printf("failover: primary %s (ops %s), follower %s", primary.Addr(), opsURL, follower.Addr())

	// Clients: multi-address, primary first.
	f := startClients(o, func(cc *clientConfig) {
		cc.addrs = []string{primary.Addr(), follower.Addr()}
		cc.ackTimeout = o.syncTimeout + 2*time.Second
	})
	totalFrames := o.tenants * o.clientsPer * o.frames

	failures := 0
	// Phase 1: traffic flowing, replication caught up → /healthz must
	// converge to ok.
	f.waitProgress(int64(totalFrames / 8))
	if d, ok := awaitHealth(opsURL, true, 20*time.Second); !ok {
		log.Printf("FAIL: primary /healthz never reported ok under healthy replication (waited %v)", d)
		failures++
	}

	// Phase 2: sever the replication link mid-traffic. Sync acks stall,
	// the sender's reconnects fail, and /healthz must degrade.
	link.sever()
	log.Printf("failover: replication link severed")
	degradedAfter, degradedOK := awaitHealth(opsURL, false, 20*time.Second)
	if !degradedOK {
		log.Printf("FAIL: primary /healthz stayed ok for %v with the replication link severed", degradedAfter)
		failures++
	} else {
		log.Printf("failover: /healthz degraded %.0fms after link loss", ms(degradedAfter))
	}

	// Phase 3: heal the link; the sender reconnects, retransmits, drains
	// the lag, and /healthz must recover.
	link.heal()
	recoveredAfter, recoveredOK := awaitHealth(opsURL, true, 30*time.Second)
	if !recoveredOK {
		log.Printf("FAIL: primary /healthz still degraded %v after the link healed", recoveredAfter)
		failures++
	} else {
		log.Printf("failover: /healthz recovered %.0fms after heal", ms(recoveredAfter))
	}

	// Phase 4: kill the primary under live traffic — disk crash, no drain
	// — then promote the follower and let the clients fail over.
	f.waitProgress(int64(totalFrames / 2))
	killAt := f.sent.Load()
	senderStats := *primary.Snapshot().Repl
	rep := primary.crash(&tot)
	log.Printf("failover: primary killed at %d/%d frames (%d shards crashed, %d unsynced ops lost to the crash, %d torn tails)",
		killAt, totalFrames, rep.Shards, rep.SurvivedOps, rep.TornTails)
	time.Sleep(o.downtime)
	ackedBase := follower.Snapshot().Acked
	epoch, err := follower.Promote()
	if err != nil {
		return benchResult{}, fmt.Errorf("promoting follower: %w", err)
	}
	firstAck := follower.awaitAckAbove(ackedBase, 20*time.Second)
	rep.RestartMs = ms(o.downtime)
	rep.RecoveryMs = ms(firstAck)
	log.Printf("failover: follower promoted to epoch %d, first client ack %.1fms later", epoch, rep.RecoveryMs)

	<-f.done
	duration := time.Since(f.start)
	receiverStats := *follower.Snapshot().Follower
	follower.stop(&tot)

	// Verification: every sync-acked frame must be present and intact in
	// the follower's cold-reopened shards.
	res, err := conclude(o, f, filepath.Join(o.dir, "follower"), duration, tot, []crashReport{rep}, failures)
	if err != nil {
		return res, err
	}
	res.Failover = &failoverReport{
		PromotedEpoch:     int(epoch),
		KillAtFrames:      killAt,
		FirstAckAfterMs:   ms(firstAck),
		HealthDegradedMs:  ms(degradedAfter),
		HealthRecoveredMs: ms(recoveredAfter),
		Sender:            senderStats,
		Receiver:          receiverStats,
	}
	for i, r := range f.results {
		res.Failover.ClientFailovers += r.Failovers
		res.Failover.AckedFrames += len(f.acks[i].all())
	}
	log.Printf("failover: %d frames acked in %v, %d client failovers, sender shipped %d records (+%d scrub), receiver applied %d",
		res.FramesAcked, duration.Round(time.Millisecond), res.Failover.ClientFailovers,
		senderStats.Records, senderStats.ScrubShipped, receiverStats.Records)
	return res, nil
}
