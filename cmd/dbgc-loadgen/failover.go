// The -failover scenario: a two-node replicated deployment under chaos.
//
// A primary and a follower run in-process, each on its own crash-prone
// faultnet.Disk shard set. The primary replicates every committed record
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
	"hash/crc32"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/faultnet"
	"dbgc/internal/netproto"
	"dbgc/internal/ops"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

// failoverOpts carries the flag subset the failover scenario uses.
type failoverOpts struct {
	tenants, clientsPer, frames, frameBytes int
	seed                                    int64
	flip, drop, tear, writeErr              float64
	downtime, syncTimeout                   time.Duration
	dir                                     string
	cleanupDir                              bool
	out                                     string
	verbose                                 bool
}

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

// replNode is one node of the replicated pair: shard set on faultnet
// disks, fsync group, reliable server, and the node's replication role
// (sender on the primary, receiver on the follower).
type replNode struct {
	name     string
	dir      string
	seed     int64
	writeErr float64
	tot      *totals

	mu    sync.Mutex
	disks map[string]*faultnet.Disk

	shards   *store.Shards
	group    *store.Group
	srv      *reliable.Server
	ln       net.Listener
	addr     string
	sender   *replica.Sender
	receiver *replica.Receiver
	opsSrv   *http.Server
	opsURL   string
}

// open builds the node's storage stack: every shard file sits on a
// simulated crash-prone disk seeded from (node seed, path).
func (n *replNode) open() error {
	if err := os.MkdirAll(n.dir, 0o755); err != nil {
		return err
	}
	shards, err := store.OpenShards(n.dir, 32)
	if err != nil {
		return err
	}
	shards.OpenFile = func(path string) (store.File, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		d := faultnet.NewDisk(f, fi.Size(), faultnet.DiskConfig{
			Seed:         n.seed ^ int64(crc32.ChecksumIEEE([]byte(path))),
			WriteErrProb: n.writeErr,
			TearOnCrash:  true,
			FlipOnTear:   true,
		})
		n.mu.Lock()
		n.disks[path] = d
		n.mu.Unlock()
		return d, nil
	}
	n.shards = shards
	n.group = store.NewGroup(0)
	return nil
}

// serve starts the node's reliable server on a fresh loopback port.
func (n *replNode) serve(cfg reliable.ServerConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv = reliable.NewServer(cfg)
	n.ln = ln
	n.addr = ln.Addr().String()
	go n.srv.Serve(ln)
	return nil
}

// serveOps starts the node's operational HTTP endpoint (/healthz,
// /metrics) on a fresh loopback port.
func (n *replNode) serveOps(health *ops.Health, metrics func() any) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.opsSrv = ops.NewServer("", health, metrics)
	n.opsURL = "http://" + ln.Addr().String()
	go n.opsSrv.Serve(ln)
	return nil
}

// crash pulls the plug on the node: every disk loses its unsynced writes
// (possibly tearing a record mid-write), the server dies without
// draining, and the replication sender — if any — is stopped.
func (n *replNode) crash() crashReport {
	n.mu.Lock()
	disks := n.disks
	n.disks = make(map[string]*faultnet.Disk)
	n.mu.Unlock()
	var rep crashReport
	for _, d := range disks {
		survived, torn, err := d.Crash()
		if err != nil {
			continue
		}
		rep.Shards++
		rep.SurvivedOps += survived
		if torn {
			rep.TornTails++
		}
	}
	ctx, cancel := expiredContext()
	defer cancel()
	n.srv.Shutdown(ctx)
	n.tot.add(n.srv.Metrics().Snapshot())
	if n.sender != nil {
		n.sender.Stop()
		n.sender.Wait()
	}
	if n.opsSrv != nil {
		n.opsSrv.Close()
	}
	n.group.Close()  // flush errors against crashed disks are expected
	n.shards.Close() // likewise
	return rep
}

// stopGraceful is the end-of-run teardown: drain sessions, persist the
// replication watermarks, flush and close the storage stack.
func (n *replNode) stopGraceful() {
	ctx, cancel := timeoutContext(10 * time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		log.Printf("%s shutdown: %v", n.name, err)
	}
	n.tot.add(n.srv.Metrics().Snapshot())
	if n.receiver != nil {
		if err := n.receiver.Close(); err != nil {
			log.Printf("%s receiver close: %v", n.name, err)
		}
	}
	if n.opsSrv != nil {
		n.opsSrv.Close()
	}
	if err := n.group.Close(); err != nil {
		log.Printf("%s group close: %v", n.name, err)
	}
	if err := n.shards.SyncAll(); err != nil {
		log.Printf("%s sync: %v", n.name, err)
	}
	if err := n.shards.Close(); err != nil {
		log.Printf("%s close: %v", n.name, err)
	}
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

// ackSet records which sequence numbers a client saw acknowledged; in
// sync mode each one is a durability promise covering both nodes.
type ackSet struct {
	mu   sync.Mutex
	seqs map[uint64]struct{}
}

func newAckSet() *ackSet { return &ackSet{seqs: make(map[uint64]struct{})} }

func (a *ackSet) add(seq uint64) {
	a.mu.Lock()
	a.seqs[seq] = struct{}{}
	a.mu.Unlock()
}

func (a *ackSet) all() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]uint64, 0, len(a.seqs))
	for s := range a.seqs {
		out = append(out, s)
	}
	return out
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

// awaitAckAbove waits for the server's ack counter to pass base — the
// moment the promoted follower truly serves client traffic.
func awaitAckAbove(srv *reliable.Server, base uint64, limit time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < limit {
		if srv.Metrics().Acked.Load() > base {
			return time.Since(t0)
		}
		time.Sleep(time.Millisecond)
	}
	return limit
}

func runFailover(o failoverOpts) int {
	logf := func(string, ...any) {}
	if o.verbose {
		logf = log.Printf
	}
	tot := &totals{}

	// Follower: receiver wired into the server's replication hooks; client
	// ingest is refused busy until promotion, so multi-address clients
	// bounce off it and stick with the primary.
	follower := &replNode{
		name: "follower", dir: filepath.Join(o.dir, "follower"),
		seed: o.seed ^ 0x5f5f, writeErr: o.writeErr,
		disks: make(map[string]*faultnet.Disk), tot: tot,
	}
	if err := follower.open(); err != nil {
		log.Fatalf("opening follower: %v", err)
	}
	receiver, err := replica.NewReceiver(follower.shards, follower.group, 16)
	if err != nil {
		log.Fatalf("follower receiver: %v", err)
	}
	follower.receiver = receiver
	err = follower.serve(reliable.ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			st, err := follower.shards.Acquire(tenant)
			if err != nil {
				return err
			}
			defer follower.shards.Release(tenant)
			if err := st.Put(m.Seq, store.KindCompressed, m.Payload); err != nil {
				return err
			}
			return follower.group.Commit(st)
		},
		ReplHello:    receiver.HandleHello,
		ReplRecord:   receiver.HandleRecord,
		NotReady:     receiver.NotReady,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Second,
		RetryAfter:   20 * time.Millisecond,
		QueueDepth:   8,
		TenantBudget: 24,
		Logf:         logf,
	})
	if err != nil {
		log.Fatalf("starting follower: %v", err)
	}

	// Primary: sync-replication gate in the handler, sender tailing the
	// shards over the chaos link.
	link := &chaosLink{inj: faultnet.New(faultnet.Config{
		Seed:        o.seed ^ 0x1ea4,
		FlipProb:    o.flip,
		DropProb:    o.drop,
		PartialProb: o.tear,
	})}
	primary := &replNode{
		name: "primary", dir: filepath.Join(o.dir, "primary"),
		seed: o.seed, writeErr: o.writeErr,
		disks: make(map[string]*faultnet.Disk), tot: tot,
	}
	if err := primary.open(); err != nil {
		log.Fatalf("opening primary: %v", err)
	}
	meta, err := replica.LoadMeta(primary.dir)
	if err != nil {
		log.Fatalf("primary meta: %v", err)
	}
	sender, err := replica.NewSender(replica.SenderConfig{
		Shards:        primary.shards,
		Addr:          follower.addr,
		DialTo:        link.dial,
		Epoch:         meta.Epoch,
		Poll:          2 * time.Millisecond,
		ScrubInterval: 750 * time.Millisecond,
		MaxInFlight:   64,
		Seed:          o.seed,
		Logf:          logf,
	})
	if err != nil {
		log.Fatalf("primary sender: %v", err)
	}
	primary.sender = sender
	go sender.Run()
	err = primary.serve(reliable.ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			st, err := primary.shards.Acquire(tenant)
			if err != nil {
				return err
			}
			end, err := st.Append(m.Seq, store.KindCompressed, m.Payload)
			if err == nil {
				err = primary.group.Commit(st)
			}
			primary.shards.Release(tenant)
			if err != nil {
				return err
			}
			sender.Kick()
			if err := sender.WaitDurable(tenant, end, o.syncTimeout); err != nil {
				return fmt.Errorf("sync replication: %w", err)
			}
			return nil
		},
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Second,
		RetryAfter:   20 * time.Millisecond,
		QueueDepth:   8,
		TenantBudget: 24,
		Logf:         logf,
	})
	if err != nil {
		log.Fatalf("starting primary: %v", err)
	}

	// The primary's health endpoint: the same probes dbgc-server wires up,
	// asserted on by this harness during the injected fault window.
	const lagMax = 32 << 20
	health := &ops.Health{}
	health.Add("store", func() (string, bool) {
		if err := primary.group.Err(); err != nil {
			return err.Error(), false
		}
		return "", true
	})
	health.Add("replication", func() (string, bool) {
		st := sender.Stats()
		switch {
		case st.Fenced:
			return "fenced by promoted follower", false
		case !st.LinkUp:
			return "follower link down", false
		case st.LagBytes > lagMax:
			return fmt.Sprintf("lag %d bytes over budget", st.LagBytes), false
		}
		return fmt.Sprintf("lag %d bytes", st.LagBytes), true
	})
	err = primary.serveOps(health, func() any {
		return map[string]any{
			"server":      primary.srv.Metrics().Snapshot(),
			"repl_sender": sender.Stats(),
		}
	})
	if err != nil {
		log.Fatalf("primary ops server: %v", err)
	}
	log.Printf("failover: primary %s (ops %s), follower %s", primary.addr, primary.opsURL, follower.addr)

	// Clients: multi-address, primary first, recording every acked seq.
	totalFrames := o.tenants * o.clientsPer * o.frames
	nClients := o.tenants * o.clientsPer
	results := make([]clientResult, nClients)
	acks := make([]*ackSet, nClients)
	var sentSoFar atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < o.tenants; t++ {
		for c := 0; c < o.clientsPer; c++ {
			idx := t*o.clientsPer + c
			acks[idx] = newAckSet()
			cc := clientConfig{
				tenant:     fmt.Sprintf("tenant%02d", t),
				baseSeq:    uint64(c) * 1_000_000,
				frames:     o.frames,
				frameBytes: o.frameBytes,
				seed:       o.seed + int64(idx)*7919,
				flip:       o.flip,
				drop:       o.drop,
				tear:       o.tear,
				addrs:      []string{primary.addr, follower.addr},
				ackTimeout: o.syncTimeout + 2*time.Second,
				onAck:      acks[idx].add,
				verbose:    o.verbose,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[idx] = runClient(cc, &sentSoFar)
			}()
		}
	}
	clientsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(clientsDone)
	}()

	failures := 0
	// Phase 1: traffic flowing, replication caught up → /healthz must
	// converge to ok.
	waitProgress(&sentSoFar, int64(totalFrames/8), clientsDone)
	if d, ok := awaitHealth(primary.opsURL, true, 20*time.Second); !ok {
		log.Printf("FAIL: primary /healthz never reported ok under healthy replication (waited %v)", d)
		failures++
	}

	// Phase 2: sever the replication link mid-traffic. Sync acks stall,
	// the sender's reconnects fail, and /healthz must degrade.
	link.sever()
	log.Printf("failover: replication link severed")
	degradedAfter, degradedOK := awaitHealth(primary.opsURL, false, 20*time.Second)
	if !degradedOK {
		log.Printf("FAIL: primary /healthz stayed ok for %v with the replication link severed", degradedAfter)
		failures++
	} else {
		log.Printf("failover: /healthz degraded %.0fms after link loss", float64(degradedAfter.Microseconds())/1000)
	}

	// Phase 3: heal the link; the sender reconnects, retransmits, drains
	// the lag, and /healthz must recover.
	link.heal()
	recoveredAfter, recoveredOK := awaitHealth(primary.opsURL, true, 30*time.Second)
	if !recoveredOK {
		log.Printf("FAIL: primary /healthz still degraded %v after the link healed", recoveredAfter)
		failures++
	} else {
		log.Printf("failover: /healthz recovered %.0fms after heal", float64(recoveredAfter.Microseconds())/1000)
	}

	// Phase 4: kill the primary under live traffic — disk crash, no drain
	// — then promote the follower and let the clients fail over.
	waitProgress(&sentSoFar, int64(totalFrames/2), clientsDone)
	killAt := sentSoFar.Load()
	senderStats := sender.Stats()
	rep := primary.crash()
	log.Printf("failover: primary killed at %d/%d frames (%d shards crashed, %d unsynced ops lost to the crash, %d torn tails)",
		killAt, totalFrames, rep.Shards, rep.SurvivedOps, rep.TornTails)
	time.Sleep(o.downtime)
	ackedBase := follower.srv.Metrics().Acked.Load()
	epoch, err := receiver.Promote()
	if err != nil {
		log.Fatalf("promoting follower: %v", err)
	}
	firstAck := awaitAckAbove(follower.srv, ackedBase, 20*time.Second)
	rep.RestartMs = float64(o.downtime.Microseconds()) / 1000
	rep.RecoveryMs = float64(firstAck.Microseconds()) / 1000
	log.Printf("failover: follower promoted to epoch %d, first client ack %.1fms later", epoch, rep.RecoveryMs)

	<-clientsDone
	duration := time.Since(start)
	receiverStats := receiver.Stats()
	follower.stopGraceful()

	clientFailovers := 0
	for i, r := range results {
		clientFailovers += r.Failovers
		if r.Err != "" {
			log.Printf("client %d (%s): FAILED: %s", i, r.Tenant, r.Err)
			failures++
		}
	}

	// Verification: cold-reopen the follower's shards and require every
	// sync-acked frame present and intact there.
	ackedTotal := 0
	lost, verified := 0, 0
	byTenant := map[string][]int{}
	for i, r := range results {
		byTenant[r.Tenant] = append(byTenant[r.Tenant], i)
	}
	for tenant, idxs := range byTenant {
		st, err := store.Open(filepath.Join(follower.dir, tenant+".db"))
		if err != nil {
			log.Fatalf("reopening follower %s shard: %v", tenant, err)
		}
		for _, i := range idxs {
			for _, seq := range acks[i].all() {
				ackedTotal++
				payload, kind, gerr := st.Get(seq)
				if gerr != nil {
					log.Printf("LOST: %s frame %d acked but missing on follower: %v", tenant, seq, gerr)
					lost++
					continue
				}
				want := framePayload(tenant, seq, len(payload))
				if kind != store.KindCompressed || len(payload) == 0 || crc32.ChecksumIEEE(payload) != crc32.ChecksumIEEE(want) {
					log.Printf("CORRUPT: %s frame %d on follower: kind %d, %d bytes", tenant, seq, kind, len(payload))
					lost++
					continue
				}
				verified++
			}
		}
		st.Close()
	}

	res := buildResult(o.tenants, o.clientsPer, o.frames, o.frameBytes, o.seed, duration,
		*tot, []crashReport{rep}, results, verified, lost, failures)
	res.Failover = &failoverReport{
		PromotedEpoch:     int(epoch),
		KillAtFrames:      killAt,
		FirstAckAfterMs:   float64(firstAck.Microseconds()) / 1000,
		ClientFailovers:   clientFailovers,
		HealthDegradedMs:  float64(degradedAfter.Microseconds()) / 1000,
		HealthRecoveredMs: float64(recoveredAfter.Microseconds()) / 1000,
		Sender:            senderStats,
		Receiver:          receiverStats,
		AckedFrames:       ackedTotal,
	}
	writeResult(o.out, res)
	log.Printf("failover: %d frames acked in %v, %d client failovers, sender shipped %d records (+%d scrub), receiver applied %d",
		res.FramesAcked, duration.Round(time.Millisecond), clientFailovers,
		senderStats.Records, senderStats.ScrubShipped, receiverStats.Records)
	if lost > 0 || failures > 0 {
		log.Printf("FAIL: %d sync-acked frames lost, %d assertion/client failures (work dir kept at %s)", lost, failures, o.dir)
		return 1
	}
	log.Printf("PASS: zero sync-acked-frame loss across %d verified frames, one primary kill, one promotion", verified)
	if o.cleanupDir {
		os.RemoveAll(o.dir)
	}
	return 0
}
