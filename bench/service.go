package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

// The daemons' flag defaults (cmd/dbgc-server, cmd/dbgc-client): the
// deployment every service workload measures.
const (
	openStores    = 64
	queueDepth    = 16
	tenantBudget  = 64
	retryAfter    = 200 * time.Millisecond
	readTimeout   = 60 * time.Second
	syncTimeout   = 5 * time.Second
	scrubInterval = time.Minute // never fires inside a run
	wmEvery       = 32
	clientWindow  = 8
	drainTimeout  = 10 * time.Second
)

// node is one server process of the replicated pair, assembled in-process
// the way cmd/dbgc-server assembles it for
//
//	-store-dir DIR -fsync always [-replica-of ADDR -sync-repl | -follower]
//
// Its handler/commit/replLink.gate/querier/answerQuery glue lives in
// package main there and cannot be imported; handle and query below mirror
// the compressed-frame branch line for line, minus the per-frame log.Printf.
type node struct {
	dir      string
	shards   *store.Shards
	group    *store.Group
	srv      *reliable.Server
	ln       net.Listener
	served   chan error
	sender   *replica.Sender   // primary only
	receiver *replica.Receiver // follower only
	// tr is nil until startTrace; sessions read it on their own goroutines.
	tr atomic.Pointer[tracer]
}

func frameID(tenant string, seq uint64) string { return tenant + "/" + strconv.FormatUint(seq, 10) }

// handle is cmd/dbgc-server's handler for a KindCompressed frame without
// -decompress: append, group-commit, then the sync replication gate.
func (n *node) handle(tenant string, m netproto.Message) error {
	st, err := n.shards.Acquire(tenant)
	if err != nil {
		return fmt.Errorf("tenant %s store: %w", tenant, err)
	}
	defer n.shards.Release(tenant)
	if m.Kind != netproto.KindCompressed {
		return fmt.Errorf("%w: unexpected kind %d", reliable.ErrBadFrame, m.Kind)
	}
	id := frameID(tenant, m.Seq)
	tr := n.tr.Load()
	start := time.Now()
	var end int64
	tr.timed(id, "store.append", func() { end, err = st.Append(m.Seq, store.KindCompressed, m.Payload) })
	if err != nil {
		return err
	}
	tr.timed(id, "store.commit", func() { err = n.group.Commit(st) })
	if err != nil {
		return err
	}
	// Local durability first, then the replication gate: a sync-mode ack
	// proves the frame is on both nodes' disks.
	if n.sender != nil {
		n.sender.Kick()
		tr.timed(id, "replica.wait_durable", func() { err = n.sender.WaitDurable(tenant, end, syncTimeout) })
		if err != nil {
			return fmt.Errorf("sync replication: %w", err)
		}
	}
	tr.add(0, id, "handler", start, time.Now())
	return nil
}

// query is cmd/dbgc-server's querier + answerQuery for a stored compressed
// frame: Get, pruning region decode, .bin encode.
func (n *node) query(tenant string, q netproto.Query) ([]byte, error) {
	st, err := n.shards.Acquire(tenant)
	if err != nil {
		return nil, err
	}
	defer n.shards.Release(tenant)
	id := frameID(tenant, q.Seq)
	tr := n.tr.Load()
	start := time.Now()
	var payload []byte
	var kind byte
	tr.timed(id, "store.get", func() { payload, kind, err = st.Get(q.Seq) })
	if err != nil {
		return nil, err
	}
	if kind != store.KindCompressed {
		return nil, fmt.Errorf("stored kind %d, the benchmark stores compressed frames only", kind)
	}
	var pts dbgc.PointCloud
	tr.timed(id, "core.region", func() { pts, err = dbgc.DecompressRegion(payload, q.Box) })
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tr.timed(id, "lidar.write_bin", func() { err = lidar.WriteBin(&buf, pts) })
	if err != nil {
		return nil, err
	}
	tr.add(0, id, "querier", start, time.Now())
	return buf.Bytes(), nil
}

// apply wraps the follower's ReplRecord hook in a span.
func (n *node) apply(m netproto.Message) error {
	tr := n.tr.Load()
	if tr == nil {
		return n.receiver.HandleRecord(m)
	}
	start := time.Now()
	err := n.receiver.HandleRecord(m)
	id := "repl"
	if rec, derr := replica.DecodeRecord(m.Payload); derr == nil {
		id = frameID(rec.Tenant, rec.Seq)
	}
	tr.add(0, id, "replica.apply", start, time.Now())
	return err
}

// openNode opens the storage stack of a node under dir and starts serving
// on a loopback port. The flush policy is the same on every run: fsync
// always through a commit group with interval 0 (a round starts as soon as
// the previous one ends), on primary and follower alike.
func openNode(dir string, follower bool) (*node, error) {
	n := &node{dir: dir, served: make(chan error, 1)}
	var err error
	if n.shards, err = store.OpenShards(dir, openStores); err != nil {
		return nil, err
	}
	n.group = store.NewGroup(0)
	cfg := reliable.ServerConfig{
		Handle:       n.handle,
		Query:        n.query,
		ReadTimeout:  readTimeout,
		QueueDepth:   queueDepth,
		TenantBudget: tenantBudget,
		RetryAfter:   retryAfter,
	}
	if follower {
		if n.receiver, err = replica.NewReceiver(n.shards, n.group, wmEvery); err != nil {
			n.close()
			return nil, err
		}
		cfg.ReplHello = n.receiver.HandleHello
		cfg.ReplRecord = n.apply
		cfg.NotReady = n.receiver.NotReady
	}
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		n.close()
		return nil, err
	}
	n.srv = reliable.NewServer(cfg)
	go func() { n.served <- n.srv.Serve(n.ln) }()
	return n, nil
}

// replicateTo makes n the primary of follower, in -sync-repl mode.
func (n *node) replicateTo(follower *node) error {
	meta, err := replica.LoadMeta(n.shards.Dir())
	if err != nil {
		return err
	}
	n.sender, err = replica.NewSender(replica.SenderConfig{
		Shards: n.shards,
		Addr:   follower.ln.Addr().String(),
		DialTo: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		Epoch:         meta.Epoch,
		ScrubInterval: scrubInterval,
	})
	if err != nil {
		return err
	}
	go n.sender.Run()
	return nil
}

// close shuts the node down in cmd/dbgc-server's order and waits for every
// goroutine it started. It is safe on a partly opened node.
func (n *node) close() error {
	var errs []error
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		errs = append(errs, n.srv.Shutdown(ctx))
		cancel()
		if err := <-n.served; !errors.Is(err, reliable.ErrServerClosed) {
			errs = append(errs, err)
		}
	} else if n.ln != nil {
		errs = append(errs, n.ln.Close())
	}
	if n.sender != nil {
		n.sender.Stop()
		n.sender.Wait()
	}
	if n.receiver != nil {
		errs = append(errs, n.receiver.Close())
	}
	if n.group != nil {
		errs = append(errs, n.group.Close())
	}
	if n.shards != nil {
		errs = append(errs, n.shards.Close())
	}
	return errors.Join(errs...)
}

// pair is the replicated deployment of every service workload.
type pair struct {
	primary, follower *node
}

func openPair(dir string) (*pair, error) {
	f, err := openNode(filepath.Join(dir, "follower"), true)
	if err != nil {
		return nil, err
	}
	p, err := openNode(filepath.Join(dir, "primary"), false)
	if err != nil {
		f.close()
		return nil, err
	}
	if err := p.replicateTo(f); err != nil {
		p.close()
		f.close()
		return nil, err
	}
	return &pair{primary: p, follower: f}, nil
}

// close stops the primary first so its sender is gone before the follower
// stops listening.
func (p *pair) close() error {
	return errors.Join(p.primary.close(), p.follower.close())
}

// dial opens a client of the primary for one tenant with the client
// daemon's defaults.
func (p *pair) dial(tenant string, onAck func(seq uint64)) (*reliable.Client, error) {
	addr := p.primary.ln.Addr().String()
	return reliable.NewClient(reliable.Options{
		Dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) },
		Tenant:      tenant,
		MaxInFlight: clientWindow,
		OnAck:       onAck,
	})
}

// serviceState is what a service workload sets up: the payload set, the
// replicated pair and one connected stream per tenant.
type serviceState struct {
	pl      *payloads
	pair    *pair
	streams []*stream
	yard    *yardstick
	simMS   []float64
	lag     *lagSampler
	closed  bool
}

// setupService generates and compresses the payload set, starts primary and
// follower under cfg.dir (emptied first), connects one stream per tenant
// and warms the path with one frame each.
func setupService(cfg runConfig, tenants []string) (*serviceState, error) {
	dir, seed := cfg.dir, cfg.seed
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &serviceState{}
	kinds, layouts := serviceKinds, serviceLayouts
	if cfg.frames > 0 {
		kinds, layouts = serviceKinds[:min(cfg.frames, len(serviceKinds))], 1
	}
	frames, err := makeFrames(kinds, layouts, seed, &s.simMS)
	if err != nil {
		return nil, err
	}
	if s.pl, err = makePayloads(frames, seed); err != nil {
		return nil, err
	}
	if s.pair, err = openPair(dir); err != nil {
		return nil, err
	}
	if s.yard, err = newYardstick(filepath.Join(dir, "yardstick"), len(tenants)); err != nil {
		s.close()
		return nil, err
	}
	for _, t := range tenants {
		st, err := s.pair.openStream(t)
		if err != nil {
			s.close()
			return nil, err
		}
		s.streams = append(s.streams, st)
		// Warm-up frame: dials, says hello, opens the shard on both nodes
		// and brings the replication stream up. It is acked and checked
		// like any other frame but not timed.
		st.saturated(s.pl, time.Time{}, 1)
		if st.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up frame of %s: %w", t, st.err)
		}
	}
	return s, nil
}

// close stops every goroutine of the deployment and reports the first
// shutdown error (a failed final fsync among them). A second call does
// nothing.
func (s *serviceState) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lag != nil {
		s.lag.finish()
	}
	var errs []error
	for _, st := range s.streams {
		errs = append(errs, st.client.Close())
	}
	if s.yard != nil {
		errs = append(errs, s.yard.close())
	}
	return errors.Join(append(errs, s.pair.close())...)
}

// startTrace switches span recording on, on both nodes and every stream,
// and starts sampling the replication lag. The deployment must be idle.
func (s *serviceState) startTrace() *tracer {
	tr := newTracer()
	s.pair.primary.tr.Store(tr)
	s.pair.follower.tr.Store(tr)
	for _, st := range s.streams {
		st.tr = tr
	}
	s.lag = sampleLag(s.pair.primary.sender)
	return tr
}

// lagSampler polls the sender's replication lag at 10 Hz until finished.
type lagSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func sampleLag(sender *replica.Sender) *lagSampler {
	l := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				l.max = max(l.max, sender.Stats().LagBytes)
			}
		}
	}()
	return l
}

// finish stops the sampler, waits for it and returns the largest lag seen.
func (l *lagSampler) finish() int64 {
	close(l.stop)
	<-l.done
	return l.max
}

// serviceReport is what finish learns once the deployment is down.
type serviceReport struct {
	lost                 int     // acked frames missing or different after the cold reopen, either node
	reopenMS             float64 // cold OpenShards + Acquire of the primary's shards
	diskBytes            int64   // primary shard files
	payloadBytes, points int     // of the acked frames
	clients              reliable.Stats
	sender               replica.SenderStats
	receiver             replica.ReceiverStats
	commits, rounds      uint64
	lagMax               int64
}

// finish reads the counters, closes the deployment and runs the durability
// gate: both shard directories are reopened cold and every acked frame of
// every stream must be present and byte-identical on primary and follower.
func (s *serviceState) finish() (*serviceReport, error) {
	r := &serviceReport{}
	for _, st := range s.streams {
		cs := st.client.Stats()
		r.clients.BusyNacked += cs.BusyNacked
		r.clients.Nacked += cs.Nacked
		r.clients.Resent += cs.Resent
		r.clients.Reconnects += cs.Reconnects - 1 // the first dial is not a reconnect
	}
	r.sender = s.pair.primary.sender.Stats()
	r.receiver = s.pair.follower.receiver.Stats()
	r.commits, r.rounds = s.pair.primary.group.Stats()
	if s.lag != nil {
		r.lagMax = s.lag.finish()
		s.lag = nil
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	for _, dir := range []string{s.pair.primary.dir, s.pair.follower.dir} {
		primary := dir == s.pair.primary.dir
		t := time.Now()
		sh, err := store.OpenShards(dir, openStores)
		if err != nil {
			return nil, err
		}
		for _, st := range s.streams {
			shard, err := sh.Acquire(st.tenant)
			if err != nil {
				sh.Close()
				return nil, err
			}
			if primary {
				r.reopenMS += ms(time.Since(t))
				if fi, err := os.Stat(sh.Path(st.tenant)); err == nil {
					r.diskBytes += fi.Size()
				}
			}
			for n, payload := range st.sent {
				if st.acked[n].IsZero() {
					continue
				}
				if primary {
					r.payloadBytes += len(payload)
					r.points += len(s.pl.frames[s.pl.of(n)].pc)
				}
				got, kind, err := shard.Get(uint64(n) + 1)
				if err != nil || kind != store.KindCompressed || !bytes.Equal(got, payload) {
					r.lost++
				}
			}
			sh.Release(st.tenant)
			t = time.Now()
		}
		if err := sh.Close(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// layerInto writes the per-layer metrics every service workload shares:
// span medians, counters and storage figures.
func (r *serviceReport) layerInto(L map[string]float64, s *serviceState, spans []span, rt *readTimes) {
	linkSpans(spans, serviceParents)
	s.pl.z.layerInto(L)
	dur, self := layerMedians(L, spans)
	acks := dur["ack"] // from → ack of every frame of the traced phase
	L["reliable.self_ms_p50"] = median(self["ack"])
	L["reliable.query_self_ms_p50"] = median(self["query"])
	// WriteBin on the server and ReadBin on the client are the .bin codec
	// of one query.
	L["lidar.bin_codec_ms_p50"] = median(dur["lidar.write_bin"]) + median(dur["lidar.read_bin"])
	L["lidar.simulate_ms_p50"] = median(s.simMS)
	L["netproto.frame_us_p50"] = wireFrameUS(s.pl.data[0], 15)

	L["reliable.ack_ms_p50"] = median(acks)
	_, L["reliable.ack_ms_tail"] = tail(acks)
	L["reliable.ack_ms_p99"] = percentile(acks, 99)
	L["reliable.query_region_ms_p50"] = median(rt.region.all)
	L["reliable.query_frame_ms_p50"] = median(rt.whole.all)
	L["reliable.busy_nacks"] = float64(r.clients.BusyNacked)
	L["reliable.nacks"] = float64(r.clients.Nacked)
	L["reliable.resent"] = float64(r.clients.Resent)
	L["reliable.reconnects"] = float64(r.clients.Reconnects)

	L["store.commits_per_round"] = float64(r.commits) / float64(max(1, r.rounds))
	L["store.disk_bytes_per_payload_byte"] = float64(r.diskBytes) / float64(max(1, r.payloadBytes))
	L["store.bytes_per_point"] = float64(r.diskBytes) / float64(max(1, r.points))
	L["store.reopen_ms"] = r.reopenMS
	L["replica.lag_bytes_max"] = float64(r.lagMax)
	L["replica.records_shipped"] = float64(r.sender.Records)
	L["replica.records_rejected"] = float64(r.receiver.Rejected)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
