// Command dbgc-loadgen is the chaos/soak harness for the multi-tenant
// ingest service: it runs the server in-process — internal/node, the code
// dbgc-server runs, not a copy of it — with its tenant shards on simulated
// crash-prone disks (faultnet.Disk), drives it with
// concurrent reliable clients over fault-injected links (faultnet link
// flips, drops, torn writes), and — at configurable points mid-traffic —
// crashes the disks and the server, restarts everything on the same
// address, and lets the clients reconnect and converge.
//
// The harness enforces the system's core durability contract: with
// group-committed fsync, an acked frame is on stable storage, so after any
// number of induced crashes every frame the clients saw acknowledged must
// be present and intact in the reopened shards. Any missing or corrupt
// acked frame is a loss, reported and fatal (exit code 1).
//
// Results (throughput, latency quantiles, backpressure and shed counters,
// per-crash recovery times, loss counts) are written as JSON to -out for
// CI trending.
//
// Usage:
//
//	dbgc-loadgen [-tenants 4] [-clients 2] [-frames 200] [-frame-bytes 2048]
//	             [-crashes 2] [-downtime 250ms] [-seed 1]
//	             [-flip 0.001] [-drop 0.002] [-tear 0.005] [-write-err 0.0005]
//	             [-shed-high 0] [-shed-low 0] [-dir work] [-out loadgen.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/faultnet"
	"dbgc/internal/netproto"
	"dbgc/internal/node"
	"dbgc/internal/reliable"
	"dbgc/internal/store"
)

// options is the flag set both scenarios share.
type options struct {
	tenants, clientsPer, frames, frameBytes, crashes int
	downtime, syncTimeout                            time.Duration
	seed                                             int64
	flip, drop, tear, writeErr                       float64
	shedHigh, shedLow                                int
	dir                                              string
	verbose                                          bool
}

// logf is the -v sink for per-client and per-node reliability events.
func (o options) logf(format string, args ...any) {
	if o.verbose {
		log.Printf(format, args...)
	}
}

// register declares the scenario flags on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.IntVar(&o.tenants, "tenants", 4, "number of tenants")
	fs.IntVar(&o.clientsPer, "clients", 2, "concurrent clients per tenant")
	fs.IntVar(&o.frames, "frames", 200, "frames per client")
	fs.IntVar(&o.frameBytes, "frame-bytes", 2048, "payload bytes per frame")
	fs.IntVar(&o.crashes, "crashes", 2, "induced crash-restart cycles during the run")
	fs.DurationVar(&o.downtime, "downtime", 250*time.Millisecond, "server downtime per crash")
	fs.Int64Var(&o.seed, "seed", 1, "master seed for all fault schedules")
	fs.Float64Var(&o.flip, "flip", 0.001, "link bit-flip probability per I/O")
	fs.Float64Var(&o.drop, "drop", 0.002, "link drop probability per write")
	fs.Float64Var(&o.tear, "tear", 0.005, "link torn-write probability per write")
	fs.Float64Var(&o.writeErr, "write-err", 0.0005, "disk injected write-fault probability")
	fs.IntVar(&o.shedHigh, "shed-high", 0, "server shed high-water mark (0 = shedding off)")
	fs.IntVar(&o.shedLow, "shed-low", 0, "server shed low-water mark")
	fs.DurationVar(&o.syncTimeout, "sync-timeout", time.Second, "sync-replication follower ack budget per frame (failover scenario)")
	fs.StringVar(&o.dir, "dir", "", "shard directory (default: a fresh temp dir, removed on success)")
	fs.BoolVar(&o.verbose, "v", false, "log per-client reliability events")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	failover := flag.Bool("failover", false, "run the primary→follower replication failover scenario instead of the single-node soak")
	out := flag.String("out", "loadgen.json", "result JSON path")
	flag.Parse()

	if s := os.Getenv("FAULTNET_SEED"); s != "" {
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err == nil {
			o.seed = v
		}
	}
	log.Printf("dbgc-loadgen: seed %d (replay with FAULTNET_SEED=%d)", o.seed, o.seed)

	cleanupDir := o.dir == ""
	if cleanupDir {
		var err error
		if o.dir, err = os.MkdirTemp("", "dbgc-loadgen-*"); err != nil {
			log.Fatal(err)
		}
	}
	run := runSoak
	if *failover {
		run = runFailover
	}
	res, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	log.Printf("wrote %s", *out)
	if res.LostFrames > 0 || res.FailedClients > 0 {
		log.Printf("FAIL: %d acked frames lost, %d client or assertion failures (work dir kept at %s)", res.LostFrames, res.FailedClients, o.dir)
		os.Exit(1)
	}
	log.Printf("PASS: zero acked-frame loss across %d verified frames and %d induced crashes", res.VerifiedFrames, len(res.Crashes))
	if cleanupDir {
		os.RemoveAll(o.dir)
	}
}

// runSoak is the single-node scenario: one node under client traffic,
// crashed and restarted on the same address o.crashes times.
func runSoak(o options) (benchResult, error) {
	var tot totals
	// Each epoch of the node replays its own deterministic disk-fault
	// schedule, seeded from (master seed, epoch, path).
	open := func(epoch int, addr string) (*chaosNode, error) {
		return openNode(node.Config{Listen: addr, Dir: o.dir}, o.seed^int64(epoch)<<32, o)
	}
	n, err := open(1, "127.0.0.1:0")
	if err != nil {
		return benchResult{}, fmt.Errorf("starting server: %w", err)
	}
	defer func() { n.Abort() }()
	addr := n.Addr()
	f := startClients(o, func(cc *clientConfig) { cc.addr = addr })

	// Crash controller: at evenly spaced progress points, crash the disks
	// under live traffic, kill the node, restart on the same address, and
	// measure how long the service takes to ack its first frame again.
	var crashReports []crashReport
	total := o.tenants * o.clientsPer * o.frames
	for i := 0; i < o.crashes; i++ {
		if !f.waitProgress(int64(total * (i + 1) / (o.crashes + 1))) {
			log.Printf("clients finished before crash %d; skipping remaining crashes", i+1)
			break
		}
		rep := n.crash(&tot)
		log.Printf("crash %d: %d shards crashed, %d unsynced ops survived, %d torn tails",
			i+1, rep.Shards, rep.SurvivedOps, rep.TornTails)
		time.Sleep(o.downtime)
		t0 := time.Now()
		next, err := open(i+2, addr)
		if err != nil {
			return benchResult{}, fmt.Errorf("restart after crash %d: %w", i+1, err)
		}
		n = next
		rep.RecoveryMs = ms(n.awaitAckAbove(0, 10*time.Second))
		rep.RestartMs = ms(time.Since(t0))
		crashReports = append(crashReports, rep)
		log.Printf("crash %d: restarted in %.1fms, first ack after %.1fms", i+1, rep.RestartMs, rep.RecoveryMs)
	}
	<-f.done
	duration := time.Since(f.start)
	n.stop(&tot)

	res, err := conclude(o, f, o.dir, duration, tot, crashReports, 0)
	if err == nil {
		log.Printf("soak: %d frames acked in %v (%.0f frames/s, %.2f MB/s), p99 %.2fms, %d busy nacks, %d quarantined, %d shed, %d crashes",
			res.FramesAcked, duration.Round(time.Millisecond), res.FramesPerSec, res.MBytesPerSec,
			res.LatencyP99Ms, res.BusyNacked, res.Quarantined, res.TenantsShed, len(crashReports))
	}
	return res, err
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// totals accumulates server metrics across node epochs (each restart starts
// a fresh Metrics).
type totals struct {
	FramesIn, BytesIn, Acked, Nacked, BusyNacked uint64
	Quarantined, SessionsRejected, TenantsShed   uint64
	SessionsOpened, SessionsStalled              uint64
	P50Ms, P99Ms                                 float64 // max across epochs
}

func (t *totals) add(s reliable.MetricsSnapshot) {
	t.FramesIn += s.FramesIn
	t.BytesIn += s.BytesIn
	t.Acked += s.Acked
	t.Nacked += s.Nacked
	t.BusyNacked += s.BusyNacked
	t.Quarantined += s.Quarantined
	t.SessionsRejected += s.SessionsRejected
	t.TenantsShed += s.TenantsShed
	t.SessionsOpened += s.SessionsOpened
	t.SessionsStalled += s.SessionsStalled
	t.P50Ms = max(t.P50Ms, s.LatencyP50Ms)
	t.P99Ms = max(t.P99Ms, s.LatencyP99Ms)
}

// chaosNode is one epoch of a real server (node.Node, the code dbgc-server
// runs) whose shard files sit on simulated crash-prone disks. crash tears it
// down the hard way; the scenario opens a fresh one over the same directory.
type chaosNode struct {
	*node.Node
	seed     int64
	writeErr float64

	mu    sync.Mutex
	disks map[string]*faultnet.Disk
}

// openNode opens cfg on fault disks seeded from (seed, path), with group-
// committed fsync and the harness's timings — short queues and retry hints,
// so backpressure and recovery show within a run of seconds — and serves it.
func openNode(cfg node.Config, seed int64, o options) (*chaosNode, error) {
	c := &chaosNode{seed: seed, writeErr: o.writeErr, disks: make(map[string]*faultnet.Disk)}
	cfg.OpenStores = 32
	cfg.OpenFile = c.openFile
	cfg.Fsync = "always" // ack ⇒ durable, fsync shared per round
	cfg.ServerConfig = reliable.ServerConfig{
		ReadTimeout:   30 * time.Second,
		WriteTimeout:  5 * time.Second,
		RetryAfter:    20 * time.Millisecond,
		QueueDepth:    8,
		TenantBudget:  24,
		ShedHighWater: o.shedHigh,
		ShedLowWater:  o.shedLow,
		Logf:          o.logf,
	}
	var err error
	if c.Node, err = node.Open(cfg); err != nil {
		return nil, err
	}
	go c.Serve()
	return c, nil
}

func (c *chaosNode) openFile(path string) (store.File, error) {
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
		Seed:         c.seed ^ int64(crc32.ChecksumIEEE([]byte(path))),
		WriteErrProb: c.writeErr,
		TearOnCrash:  true,
		FlipOnTear:   true,
	})
	c.mu.Lock()
	c.disks[path] = d
	c.mu.Unlock()
	return d, nil
}

type crashReport struct {
	Shards      int     `json:"shards"`
	SurvivedOps int     `json:"unsynced_ops_survived"`
	TornTails   int     `json:"torn_tails"`
	RestartMs   float64 `json:"restart_ms"`
	RecoveryMs  float64 `json:"first_ack_ms"`
}

// crash pulls the plug: every disk loses its unsynced writes (possibly
// tearing the record mid-write, as power loss does) while traffic is still
// flowing, then the node is killed without draining. Returns what the
// "power loss" destroyed.
func (c *chaosNode) crash(tot *totals) crashReport {
	c.mu.Lock()
	disks := c.disks
	c.disks = make(map[string]*faultnet.Disk)
	c.mu.Unlock()
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
	// In-flight handlers now fail against crashed disks (nacked frames,
	// clients retry after the restart); flush errors are expected too.
	c.Abort()
	tot.add(c.Snapshot().MetricsSnapshot)
	return rep
}

// stop is the graceful end-of-run teardown: node.Close with time to drain.
func (c *chaosNode) stop(tot *totals) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		log.Printf("final shutdown: %v", err)
	}
	tot.add(c.Snapshot().MetricsSnapshot)
}

// awaitAckAbove waits for the node's ack counter to pass base — the moment
// it is truly serving client traffic (again).
func (c *chaosNode) awaitAckAbove(base uint64, limit time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < limit {
		if c.Snapshot().Acked > base {
			return time.Since(t0)
		}
		time.Sleep(time.Millisecond)
	}
	return limit
}

// fleet is every client of a run, streaming concurrently.
type fleet struct {
	results []clientResult
	acks    []*ackSet // per client: the sequence numbers it saw acknowledged
	sent    atomic.Int64
	start   time.Time
	done    chan struct{} // closed once every client has returned
}

// startClients launches o.tenants × o.clientsPer clients; tune points each
// at its server(s).
func startClients(o options, tune func(cc *clientConfig)) *fleet {
	n := o.tenants * o.clientsPer
	f := &fleet{results: make([]clientResult, n), acks: make([]*ackSet, n), start: time.Now(), done: make(chan struct{})}
	var wg sync.WaitGroup
	for t := 0; t < o.tenants; t++ {
		for c := 0; c < o.clientsPer; c++ {
			idx := t*o.clientsPer + c
			f.acks[idx] = &ackSet{seqs: make(map[uint64]struct{})}
			cc := clientConfig{
				tenant:     fmt.Sprintf("tenant%02d", t),
				baseSeq:    uint64(c) * 1_000_000,
				frames:     o.frames,
				frameBytes: o.frameBytes,
				seed:       o.seed + int64(idx)*7919,
				flip:       o.flip,
				drop:       o.drop,
				tear:       o.tear,
				onAck:      f.acks[idx].add,
				logf:       o.logf,
			}
			tune(&cc)
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.results[idx] = runClient(cc, &f.sent)
			}()
		}
	}
	go func() {
		wg.Wait()
		close(f.done)
	}()
	return f
}

// waitProgress blocks until the sent counter reaches target; false when the
// clients finish first.
func (f *fleet) waitProgress(target int64) bool {
	for f.sent.Load() < target {
		select {
		case <-f.done:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return true
}

// ackSet records which sequence numbers a client saw acknowledged: each one
// is a durability promise (in sync mode, covering both nodes).
type ackSet struct {
	mu   sync.Mutex
	seqs map[uint64]struct{}
}

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

type clientConfig struct {
	tenant     string
	baseSeq    uint64
	frames     int
	frameBytes int
	seed       int64
	flip       float64
	drop       float64
	tear       float64
	addr       string
	// addrs switches the client to multi-address failover mode (used by
	// the -failover scenario; overrides addr).
	addrs []string
	// ackTimeout overrides the 2s default resend timer (sync replication
	// holds acks longer than a single-node server would).
	ackTimeout time.Duration
	// onAck observes every acknowledged sequence number.
	onAck func(seq uint64)
	logf  func(format string, args ...any)
}

type clientResult struct {
	Tenant     string `json:"tenant"`
	BaseSeq    uint64 `json:"base_seq"`
	Sent       int    `json:"sent"`
	Acked      int    `json:"acked"`
	Resent     int    `json:"resent"`
	BusyNacked int    `json:"busy_nacked"`
	Reconnects int    `json:"reconnects"`
	Failovers  int    `json:"failovers,omitempty"`
	Err        string `json:"err,omitempty"`
}

// runClient streams one client's frames through a fault-injected link,
// retrying and reconnecting as the link and the server epochs demand. A
// clean Close means every sent frame was acknowledged.
func runClient(cc clientConfig, sent *atomic.Int64) clientResult {
	res := clientResult{Tenant: cc.tenant, BaseSeq: cc.baseSeq}
	inj := faultnet.New(faultnet.Config{
		Seed:        cc.seed,
		FlipProb:    cc.flip,
		DropProb:    cc.drop,
		PartialProb: cc.tear,
	})
	ackTimeout := cc.ackTimeout
	if ackTimeout <= 0 {
		ackTimeout = 2 * time.Second
	}
	dialTo := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return inj.Wrap(c), nil
	}
	opts := reliable.Options{
		Tenant:       cc.tenant,
		OnAck:        cc.onAck,
		MaxInFlight:  8,
		AckTimeout:   ackTimeout,
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   500 * time.Millisecond,
		MaxStalls:    2000, // must survive crash windows and shed periods
		FrameRetries: 1000, // link flips burn retries; the budget is generous
		BusyRetries:  10000,
		Seed:         cc.seed,
		Logf:         cc.logf,
	}
	if len(cc.addrs) > 0 {
		opts.Addrs, opts.DialTo = cc.addrs, dialTo
	} else {
		opts.Dial = func() (net.Conn, error) { return dialTo(cc.addr) }
	}
	cli, err := reliable.NewClient(opts)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	for i := 0; i < cc.frames; i++ {
		seq := cc.baseSeq + uint64(i)
		if err := cli.Send(netproto.Message{
			Kind:    netproto.KindCompressed,
			Seq:     seq,
			Payload: framePayload(cc.tenant, seq, cc.frameBytes),
		}); err != nil {
			res.Err = fmt.Sprintf("send %d: %v", seq, err)
			return res
		}
		res.Sent++
		sent.Add(1)
	}
	if err := cli.Close(); err != nil {
		res.Err = fmt.Sprintf("close: %v", err)
	}
	st := cli.Stats()
	res.Acked, res.Resent, res.BusyNacked, res.Reconnects = st.Acked, st.Resent, st.BusyNacked, st.Reconnects
	res.Failovers = st.Failovers
	return res
}

// framePayload is deterministic per (tenant, seq) so verification can
// recompute the expected bytes without bookkeeping.
func framePayload(tenant string, seq uint64, n int) []byte {
	h := crc32.ChecksumIEEE([]byte(tenant))
	rng := rand.New(rand.NewSource(int64(h)<<32 ^ int64(seq)))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// verifyShards is the oracle, independent of internal/node: it reopens
// every tenant shard under dir cold (plain files, full rebuild, truncate at
// the first corrupt record) and checks that each frame a client saw
// acknowledged is present and byte-identical. Returns (lost, verified).
func verifyShards(dir string, f *fleet) (lost, verified int, err error) {
	byTenant := map[string][]*ackSet{}
	for i, r := range f.results {
		byTenant[r.Tenant] = append(byTenant[r.Tenant], f.acks[i])
	}
	for tenant, sets := range byTenant {
		st, err := store.Open(filepath.Join(dir, tenant+".db"))
		if err != nil {
			return lost, verified, fmt.Errorf("reopening %s shard: %w", tenant, err)
		}
		for _, a := range sets {
			for _, seq := range a.all() {
				payload, kind, gerr := st.Get(seq)
				if gerr != nil {
					log.Printf("LOST: %s frame %d acked but missing: %v", tenant, seq, gerr)
					lost++
					continue
				}
				want := framePayload(tenant, seq, len(payload))
				if kind != store.KindCompressed || len(payload) == 0 || crc32.ChecksumIEEE(payload) != crc32.ChecksumIEEE(want) {
					log.Printf("CORRUPT: %s frame %d: kind %d, %d bytes", tenant, seq, kind, len(payload))
					lost++
					continue
				}
				verified++
			}
		}
		st.Close()
	}
	return lost, verified, nil
}

type benchResult struct {
	Config struct {
		Tenants    int   `json:"tenants"`
		Clients    int   `json:"clients_per_tenant"`
		Frames     int   `json:"frames_per_client"`
		FrameBytes int   `json:"frame_bytes"`
		Seed       int64 `json:"seed"`
	} `json:"config"`
	DurationS        float64         `json:"duration_s"`
	FramesAcked      uint64          `json:"frames_acked"`
	FramesPerSec     float64         `json:"frames_per_s"`
	MBytesPerSec     float64         `json:"mbytes_per_s"`
	LatencyP50Ms     float64         `json:"latency_p50_ms"`
	LatencyP99Ms     float64         `json:"latency_p99_ms"`
	BusyNacked       uint64          `json:"busy_nacked"`
	Nacked           uint64          `json:"nacked"`
	Quarantined      uint64          `json:"quarantined"`
	TenantsShed      uint64          `json:"tenants_shed"`
	SessionsRejected uint64          `json:"sessions_rejected"`
	SessionsStalled  uint64          `json:"sessions_stalled"`
	SessionsOpened   uint64          `json:"sessions_opened"`
	Crashes          []crashReport   `json:"crashes"`
	Clients          []clientResult  `json:"clients"`
	VerifiedFrames   int             `json:"verified_frames"`
	LostFrames       int             `json:"lost_frames"`
	FailedClients    int             `json:"failed_clients"`
	Failover         *failoverReport `json:"failover,omitempty"`
}

// conclude ends a run whose nodes are down: failed clients are counted on
// top of the scenario's own failures, the shards under dir go through
// verifyShards, and the result is assembled for -out.
func conclude(o options, f *fleet, dir string, dur time.Duration, t totals, crashes []crashReport, failures int) (benchResult, error) {
	for i, c := range f.results {
		if c.Err != "" {
			log.Printf("client %d (%s): FAILED: %s", i, c.Tenant, c.Err)
			failures++
		}
	}
	lost, verified, err := verifyShards(dir, f)
	if err != nil {
		return benchResult{}, fmt.Errorf("verification: %w", err)
	}
	var r benchResult
	r.Config.Tenants = o.tenants
	r.Config.Clients = o.clientsPer
	r.Config.Frames = o.frames
	r.Config.FrameBytes = o.frameBytes
	r.Config.Seed = o.seed
	r.DurationS = dur.Seconds()
	r.FramesAcked = t.Acked
	r.FramesPerSec = float64(t.Acked) / dur.Seconds()
	r.MBytesPerSec = float64(t.BytesIn) / dur.Seconds() / (1 << 20)
	r.LatencyP50Ms = t.P50Ms
	r.LatencyP99Ms = t.P99Ms
	r.BusyNacked = t.BusyNacked
	r.Nacked = t.Nacked
	r.Quarantined = t.Quarantined
	r.TenantsShed = t.TenantsShed
	r.SessionsRejected = t.SessionsRejected
	r.SessionsStalled = t.SessionsStalled
	r.SessionsOpened = t.SessionsOpened
	r.Crashes = crashes
	r.Clients = f.results
	r.VerifiedFrames = verified
	r.LostFrames = lost
	r.FailedClients = failures
	return r, nil
}
