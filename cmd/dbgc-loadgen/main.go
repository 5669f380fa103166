// Command dbgc-loadgen is the chaos/soak harness for the multi-tenant
// ingest service: it runs an in-process dbgc ingest server whose tenant
// shards sit on simulated crash-prone disks (faultnet.Disk), drives it with
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
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/faultnet"
	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/store"
)

func main() {
	tenants := flag.Int("tenants", 4, "number of tenants")
	clientsPer := flag.Int("clients", 2, "concurrent clients per tenant")
	frames := flag.Int("frames", 200, "frames per client")
	frameBytes := flag.Int("frame-bytes", 2048, "payload bytes per frame")
	crashes := flag.Int("crashes", 2, "induced crash-restart cycles during the run")
	downtime := flag.Duration("downtime", 250*time.Millisecond, "server downtime per crash")
	seed := flag.Int64("seed", 1, "master seed for all fault schedules")
	flip := flag.Float64("flip", 0.001, "link bit-flip probability per I/O")
	drop := flag.Float64("drop", 0.002, "link drop probability per write")
	tear := flag.Float64("tear", 0.005, "link torn-write probability per write")
	writeErr := flag.Float64("write-err", 0.0005, "disk injected write-fault probability")
	shedHigh := flag.Int("shed-high", 0, "server shed high-water mark (0 = shedding off)")
	shedLow := flag.Int("shed-low", 0, "server shed low-water mark")
	failover := flag.Bool("failover", false, "run the primary→follower replication failover scenario instead of the single-node soak")
	syncTimeout := flag.Duration("sync-timeout", time.Second, "sync-replication follower ack budget per frame (failover scenario)")
	dir := flag.String("dir", "", "shard directory (default: a fresh temp dir, removed on success)")
	out := flag.String("out", "loadgen.json", "result JSON path")
	verbose := flag.Bool("v", false, "log per-client reliability events")
	flag.Parse()

	if s := os.Getenv("FAULTNET_SEED"); s != "" {
		var v int64
		if _, err := fmt.Sscanf(s, "%d", &v); err == nil {
			*seed = v
		}
	}
	log.Printf("dbgc-loadgen: seed %d (replay with FAULTNET_SEED=%d)", *seed, *seed)

	workDir := *dir
	cleanupDir := false
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "dbgc-loadgen-*")
		if err != nil {
			log.Fatal(err)
		}
		cleanupDir = true
	}

	if *failover {
		os.Exit(runFailover(failoverOpts{
			tenants: *tenants, clientsPer: *clientsPer,
			frames: *frames, frameBytes: *frameBytes,
			seed: *seed, flip: *flip, drop: *drop, tear: *tear, writeErr: *writeErr,
			downtime: *downtime, syncTimeout: *syncTimeout,
			dir: workDir, cleanupDir: cleanupDir, out: *out, verbose: *verbose,
		}))
	}

	h := &harness{
		dir:      workDir,
		seed:     *seed,
		writeErr: *writeErr,
		shedHigh: *shedHigh,
		shedLow:  *shedLow,
		verbose:  *verbose,
		disks:    make(map[string]*faultnet.Disk),
	}
	if err := h.start("127.0.0.1:0"); err != nil {
		log.Fatalf("starting server: %v", err)
	}
	addr := h.addr

	totalFrames := *tenants * *clientsPer * *frames
	var sentSoFar atomic.Int64
	results := make([]clientResult, *tenants**clientsPer)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < *tenants; t++ {
		for c := 0; c < *clientsPer; c++ {
			idx := t**clientsPer + c
			cc := clientConfig{
				tenant:     fmt.Sprintf("tenant%02d", t),
				baseSeq:    uint64(c) * 1_000_000,
				frames:     *frames,
				frameBytes: *frameBytes,
				seed:       *seed + int64(idx)*7919,
				flip:       *flip,
				drop:       *drop,
				tear:       *tear,
				addr:       addr,
				verbose:    *verbose,
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

	// Crash controller: at evenly spaced progress points, crash the disks
	// under live traffic, kill the server, restart on the same address,
	// and measure how long the service takes to ack its first frame again.
	var crashReports []crashReport
	for i := 0; i < *crashes; i++ {
		target := int64(totalFrames * (i + 1) / (*crashes + 1))
		if !waitProgress(&sentSoFar, target, clientsDone) {
			log.Printf("clients finished before crash %d; skipping remaining crashes", i+1)
			break
		}
		rep := h.crash()
		log.Printf("crash %d: %d shards crashed, %d unsynced ops survived, %d torn tails",
			i+1, rep.Shards, rep.SurvivedOps, rep.TornTails)
		time.Sleep(*downtime)
		t0 := time.Now()
		if err := h.start(addr); err != nil {
			log.Fatalf("restart after crash %d: %v", i+1, err)
		}
		rep.RecoveryMs = float64(h.awaitFirstAck(10*time.Second).Microseconds()) / 1000
		rep.RestartMs = float64(time.Since(t0).Microseconds()) / 1000
		crashReports = append(crashReports, rep)
		log.Printf("crash %d: restarted in %.1fms, first ack after %.1fms", i+1, rep.RestartMs, rep.RecoveryMs)
	}
	<-clientsDone
	duration := time.Since(start)
	h.stop()

	// Verification: reopen every shard with the plain store (full rebuild,
	// truncate-at-first-corrupt) and require every acked frame intact.
	failures := 0
	for i, r := range results {
		if r.Err != "" {
			log.Printf("client %d (%s): FAILED: %s", i, r.Tenant, r.Err)
			failures++
		}
	}
	lost, verified, verr := verifyShards(workDir, results)
	if verr != nil {
		log.Fatalf("verification: %v", verr)
	}

	res := buildResult(*tenants, *clientsPer, *frames, *frameBytes, *seed, duration,
		h.totals, crashReports, results, verified, lost, failures)
	writeResult(*out, res)
	log.Printf("soak: %d frames acked in %v (%.0f frames/s, %.2f MB/s), p99 %.2fms, %d busy nacks, %d quarantined, %d shed, %d crashes",
		res.FramesAcked, duration.Round(time.Millisecond), res.FramesPerSec, res.MBytesPerSec,
		res.LatencyP99Ms, res.BusyNacked, res.Quarantined, res.TenantsShed, len(crashReports))
	if lost > 0 || failures > 0 {
		log.Printf("FAIL: %d acked frames lost, %d clients failed (work dir kept at %s)", lost, failures, workDir)
		os.Exit(1)
	}
	log.Printf("PASS: zero acked-frame loss across %d verified frames and %d induced crashes", verified, len(crashReports))
	if cleanupDir {
		os.RemoveAll(workDir)
	}
}

// waitProgress blocks until the sent counter reaches target; false when the
// clients finish first.
func waitProgress(sent *atomic.Int64, target int64, done <-chan struct{}) bool {
	for sent.Load() < target {
		select {
		case <-done:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
	return true
}

// harness owns one epoch of the server stack: listener, reliable server,
// shard set on crash-prone disks, and the fsync group. Crash tears it all
// down the hard way; start builds a fresh epoch over the same directory.
type harness struct {
	dir      string
	seed     int64
	writeErr float64
	shedHigh int
	shedLow  int
	verbose  bool
	addr     string

	mu     sync.Mutex
	disks  map[string]*faultnet.Disk
	epoch  int
	shards *store.Shards
	group  *store.Group
	srv    *reliable.Server
	ln     net.Listener

	totals totals
}

// totals accumulates server metrics across epochs (each restart starts a
// fresh Metrics).
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
	if s.LatencyP50Ms > t.P50Ms {
		t.P50Ms = s.LatencyP50Ms
	}
	if s.LatencyP99Ms > t.P99Ms {
		t.P99Ms = s.LatencyP99Ms
	}
}

func (h *harness) start(addr string) error {
	h.mu.Lock()
	h.epoch++
	epoch := h.epoch
	h.mu.Unlock()
	shards, err := store.OpenShards(h.dir, 32)
	if err != nil {
		return err
	}
	// Every shard file sits on a simulated crash-prone disk; the seed is
	// derived from (master seed, epoch, path) so each epoch replays its
	// own deterministic fault schedule.
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
			Seed:         h.seed ^ int64(epoch)<<32 ^ int64(crc32.ChecksumIEEE([]byte(path))),
			WriteErrProb: h.writeErr,
			TearOnCrash:  true,
			FlipOnTear:   true,
		})
		h.mu.Lock()
		h.disks[path] = d
		h.mu.Unlock()
		return d, nil
	}
	group := store.NewGroup(0)
	logf := func(string, ...any) {}
	if h.verbose {
		logf = log.Printf
	}
	srv := reliable.NewServer(reliable.ServerConfig{
		Handle: func(tenant string, m netproto.Message) error {
			st, err := shards.Acquire(tenant)
			if err != nil {
				return err
			}
			defer shards.Release(tenant)
			if err := st.Put(m.Seq, store.KindCompressed, m.Payload); err != nil {
				return err
			}
			return group.Commit(st) // ack ⇒ durable, fsync shared per round
		},
		ReadTimeout:   30 * time.Second,
		WriteTimeout:  5 * time.Second,
		RetryAfter:    20 * time.Millisecond,
		QueueDepth:    8,
		TenantBudget:  24,
		ShedHighWater: h.shedHigh,
		ShedLowWater:  h.shedLow,
		Logf:          logf,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		shards.Close()
		group.Close()
		return err
	}
	h.mu.Lock()
	h.shards, h.group, h.srv, h.ln = shards, group, srv, ln
	h.addr = ln.Addr().String()
	h.mu.Unlock()
	go srv.Serve(ln)
	return nil
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
// flowing, then the server is killed without draining. Returns what the
// "power loss" destroyed.
func (h *harness) crash() crashReport {
	h.mu.Lock()
	disks := h.disks
	h.disks = make(map[string]*faultnet.Disk)
	srv, group, shards := h.srv, h.group, h.shards
	h.mu.Unlock()

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
	// clients retry after the restart); kill the server without draining.
	ctx, cancel := expiredContext()
	defer cancel()
	srv.Shutdown(ctx)
	h.totals.add(srv.Metrics().Snapshot())
	group.Close()  // flush errors against crashed disks are expected
	shards.Close() // likewise
	return rep
}

// stop is the graceful end-of-run teardown: drain sessions, flush the
// commit group, sync and close every shard.
func (h *harness) stop() {
	h.mu.Lock()
	srv, group, shards := h.srv, h.group, h.shards
	h.mu.Unlock()
	ctx, cancel := timeoutContext(10 * time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("final shutdown: %v", err)
	}
	h.totals.add(srv.Metrics().Snapshot())
	if err := group.Close(); err != nil {
		log.Printf("final group close: %v", err)
	}
	if err := shards.SyncAll(); err != nil {
		log.Printf("final sync: %v", err)
	}
	if err := shards.Close(); err != nil {
		log.Printf("final close: %v", err)
	}
}

// awaitFirstAck polls the current epoch's metrics for the first
// acknowledged frame — the moment the service is truly serving again.
func (h *harness) awaitFirstAck(limit time.Duration) time.Duration {
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	t0 := time.Now()
	for time.Since(t0) < limit {
		if srv.Metrics().Acked.Load() > 0 {
			return time.Since(t0)
		}
		time.Sleep(time.Millisecond)
	}
	return limit
}

// expiredContext yields an already-cancelled context: Shutdown with it
// force-closes connections instead of draining.
func expiredContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx, cancel
}

func timeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
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
	// onAck, when set, observes every acknowledged sequence number.
	onAck   func(seq uint64)
	verbose bool
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
	logf := func(string, ...any) {}
	if cc.verbose {
		logf = log.Printf
	}
	ackTimeout := cc.ackTimeout
	if ackTimeout <= 0 {
		ackTimeout = 2 * time.Second
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
		Logf:         logf,
	}
	if len(cc.addrs) > 0 {
		opts.Addrs = cc.addrs
		opts.DialTo = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(c), nil
		}
	} else {
		opts.Dial = func() (net.Conn, error) {
			c, err := net.Dial("tcp", cc.addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(c), nil
		}
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

// verifyShards reopens every tenant shard cold (plain files, full rebuild)
// and checks that each frame a client saw acknowledged is present and
// byte-identical. Returns (lost, verified) counts.
func verifyShards(dir string, results []clientResult) (lost, verified int, err error) {
	byTenant := map[string][]clientResult{}
	for _, r := range results {
		byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
	}
	for tenant, clients := range byTenant {
		st, err := store.Open(fmt.Sprintf("%s/%s.db", dir, tenant))
		if err != nil {
			return lost, verified, fmt.Errorf("reopening %s shard: %w", tenant, err)
		}
		for _, c := range clients {
			// A clean client acked everything it sent; a failed client's
			// ack set is unknown, so its frames are skipped here (the
			// failure itself already fails the run).
			if c.Err != "" {
				continue
			}
			for i := 0; i < c.Sent; i++ {
				seq := c.BaseSeq + uint64(i)
				payload, kind, gerr := st.Get(seq)
				if gerr != nil {
					log.Printf("LOST: %s frame %d: %v", tenant, seq, gerr)
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

// writeResult serializes one run's result JSON for CI trending.
func writeResult(path string, res benchResult) {
	blob, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	log.Printf("wrote %s", path)
}

func buildResult(tenants, clients, frames, frameBytes int, seed int64, dur time.Duration,
	t totals, crashes []crashReport, clientRes []clientResult, verified, lost, failures int) benchResult {
	var r benchResult
	r.Config.Tenants = tenants
	r.Config.Clients = clients
	r.Config.Frames = frames
	r.Config.FrameBytes = frameBytes
	r.Config.Seed = seed
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
	r.Clients = clientRes
	r.VerifiedFrames = verified
	r.LostFrames = lost
	r.FailedClients = failures
	return r
}
