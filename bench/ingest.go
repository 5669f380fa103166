package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
)

// serviceKinds are the four scenes service payloads are drawn from.
var serviceKinds = []lidar.SceneKind{lidar.City, lidar.Road, lidar.Residential, lidar.Campus}

// serviceLayouts is the number of layouts per scene: 4 × 2 = 8 payloads.
const serviceLayouts = 2

// pacedRate is the offered rate of one ingest_paced connection: five
// vehicles at the sensor's 10 Hz.
const pacedRate = 50

// ackBudget is the latency limit of ingest_paced: the next frame of the
// same sensor is due.
const ackBudget = 100 * time.Millisecond

// payloads is a set of pre-compressed frames with what the correctness
// gates need to check a query result against them.
type payloads struct {
	frames []frame
	data   [][]byte
	order  []int
	z      sizes
	// expected caches, per (payload, 0 lane | 1 whole), the cloud a query
	// must return. Only the goroutine issuing queries touches it.
	expected map[[2]int]dbgc.PointCloud
}

// makePayloads compresses the frames with one encoder under the default
// options and gates each payload on the error bound.
func makePayloads(frames []frame, seed int64) (*payloads, error) {
	p := &payloads{frames: frames, order: rotation(len(frames), seed), expected: make(map[[2]int]dbgc.PointCloud)}
	enc := dbgc.NewEncoder(dbgc.DefaultOptions(q))
	for i, f := range frames {
		data, st, err := enc.Compress(f.pc)
		if err != nil {
			return nil, fmt.Errorf("compress %s/%d: %w", f.kind, f.layout, err)
		}
		dec, err := dbgc.Decompress(data)
		if err != nil {
			return nil, fmt.Errorf("decompress %s/%d: %w", f.kind, f.layout, err)
		}
		if _, err := dbgc.VerifyErrorBound(f.pc, dec, st.Mapping, q); err != nil {
			return nil, fmt.Errorf("%s/%d: %w", f.kind, f.layout, err)
		}
		p.z.add(i, st, len(boxFilter(dec, laneBox)))
		p.data = append(p.data, data)
	}
	return p, nil
}

// of returns the payload index the n-th frame of a stream carries.
func (p *payloads) of(n int) int { return p.order[n%len(p.order)] }

// want returns the cloud a query for payload i with the box must return:
// the box filter of the full decode, through the .bin float32 layout.
func (p *payloads) want(i int, whole bool) (dbgc.PointCloud, error) {
	key := [2]int{i, 0}
	box := laneBox
	if whole {
		key[1], box = 1, wholeBox
	}
	if pc, ok := p.expected[key]; ok {
		return pc, nil
	}
	dec, err := dbgc.Decompress(p.data[i])
	if err != nil {
		return nil, err
	}
	pc, err := binRoundTrip(boxFilter(dec, box))
	if err != nil {
		return nil, err
	}
	p.expected[key] = pc
	return pc, nil
}

// dueTime is the open-loop schedule: frame i of a stream is due i intervals
// after the stream's start, whatever happened to the frames before it.
func dueTime(start time.Time, interval time.Duration, i int) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// stream is one client connection of an ingest workload and the timeline
// of every frame it sent. Frame n (0-based) travels as sequence number n+1.
// OnAck runs on the goroutine driving Send/Flush/Tick, so the slices need no
// lock.
type stream struct {
	tenant string
	client *reliable.Client
	tr     *tracer
	sent   [][]byte    // payload of each frame, for the durability gate
	from   []time.Time // due time (paced) or send time (saturated)
	acked  []time.Time // zero until the ack arrives
	late   []float64   // ms the generator ran behind the schedule
	err    error
}

func (p *pair) openStream(tenant string) (*stream, error) {
	s := &stream{tenant: tenant}
	var err error
	s.client, err = p.dial(tenant, func(seq uint64) {
		now := time.Now()
		n := int(seq - 1)
		if n < 0 || n >= len(s.acked) || !s.acked[n].IsZero() {
			return
		}
		s.acked[n] = now
		s.tr.add(0, frameID(s.tenant, seq), "ack", s.from[n], now)
	})
	return s, err
}

// send ships payload as the stream's next frame; its latency counts from
// the given instant.
func (s *stream) send(payload []byte, from time.Time) error {
	n := len(s.from)
	s.sent = append(s.sent, payload)
	s.from = append(s.from, from)
	s.acked = append(s.acked, time.Time{})
	return s.client.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: uint64(n) + 1, Payload: payload})
}

// paced offers frames on the open-loop schedule until the deadline and
// waits for the last ack. Waiting for a due time pumps acks, so an ack is
// stamped when it arrives, not when the next frame goes out.
func (s *stream) paced(pl *payloads, start time.Time, interval time.Duration, frames int) {
	for i := 0; i < frames && s.err == nil; i++ {
		due := dueTime(start, interval, i)
		for wait := time.Until(due); wait > 0 && s.err == nil; wait = time.Until(due) {
			if s.client.InFlight() == 0 {
				time.Sleep(wait)
			} else {
				s.err = s.client.Tick(wait)
			}
		}
		if s.err != nil {
			return
		}
		s.late = append(s.late, ms(time.Since(due)))
		s.err = s.send(pl.data[pl.of(len(s.from))], due)
	}
	if s.err == nil {
		s.err = s.client.Flush()
	}
}

// saturated keeps the window full until the deadline (or maxFrames, when
// positive) and waits for the last ack.
func (s *stream) saturated(pl *payloads, deadline time.Time, maxFrames int) {
	for n := 0; s.err == nil; n++ {
		if maxFrames > 0 && n >= maxFrames {
			break
		}
		if maxFrames <= 0 && time.Now().After(deadline) {
			break
		}
		s.err = s.send(pl.data[pl.of(len(s.from))], time.Now())
	}
	if s.err == nil {
		s.err = s.client.Flush()
	}
}

// latencies returns from→ack in ms of the frames from lo on that were
// acked, and how many of them were not.
func (s *stream) latencies(lo int) (v []float64, missing int) {
	for n := lo; n < len(s.from); n++ {
		if s.acked[n].IsZero() {
			missing++
			continue
		}
		v = append(v, ms(s.acked[n].Sub(s.from[n])))
	}
	return v, missing
}

// readTimes holds query sent → points parsed, by payload queried.
type readTimes struct {
	region, whole samples
}

// readBack is the read phase of an ingest workload: a closed loop of
// lane-box and whole-frame queries against frames the stream ingested,
// each result parsed and checked.
func (s *stream) readBack(pl *payloads, ref *refClock, seconds float64, maxQueries int, rt *readTimes) (attempted, failed int) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; ; k++ {
		if maxQueries > 0 && k >= maxQueries {
			break
		}
		// One pass over the distinct payloads at least, so each has a
		// sample; the stride walks the whole shard, not only its head.
		if maxQueries <= 0 && k >= len(pl.data) && time.Now().After(deadline) {
			break
		}
		n := (k * 37) % len(s.from)
		attempted += 2
		failed += s.queryPair(pl, ref, n, n, rt)
	}
	return attempted, failed
}

// queryPair issues a lane-box query for frame nRegion and a whole-frame
// query for frame nWhole between two reference-kernel runs, records the
// timings of those that succeed and returns how many failed.
func (s *stream) queryPair(pl *payloads, ref *refClock, nRegion, nWhole int, rt *readTimes) (failed int) {
	var okR, okW bool
	var dR, dW float64
	scale := ref.bracket(func() {
		okR, dR = s.queryOnce(pl, nRegion, false)
		okW, dW = s.queryOnce(pl, nWhole, true)
	})
	if okR {
		rt.region.add(pl.of(nRegion), dR, scale)
	} else {
		failed++
	}
	if okW {
		rt.whole.add(pl.of(nWhole), dW, scale)
	} else {
		failed++
	}
	return failed
}

// queryOnce times query sent → points parsed for frame n and checks the
// points against the payload's own decode.
func (s *stream) queryOnce(pl *payloads, n int, whole bool) (ok bool, millis float64) {
	box := laneBox
	if whole {
		box = wholeBox
	}
	seq := uint64(n) + 1
	id := frameID(s.tenant, seq)
	t0 := time.Now()
	res, err := s.client.Query(netproto.Query{Seq: seq, Box: box})
	if err != nil {
		return false, 0
	}
	t1 := time.Now()
	pts, err := lidar.ReadBin(bytes.NewReader(res.Payload))
	t2 := time.Now()
	if err != nil {
		return false, 0
	}
	s.tr.add(0, id, "query", t0, t2)
	s.tr.add(0, id, "lidar.read_bin", t1, t2)
	want, err := pl.want(pl.of(n), whole)
	if err != nil || !sameMultiset(pts, want) {
		return false, 0
	}
	return true, ms(t2.Sub(t0))
}

// serviceParents says which span each service span hangs under; the spans
// are recorded flat, on whichever goroutine did the work, and linked by
// frame ID afterwards.
var serviceParents = map[string]string{
	"core.compress":        "frame_to_ack",
	"ack":                  "frame_to_ack",
	"handler":              "ack",
	"store.append":         "handler",
	"store.commit":         "handler",
	"replica.wait_durable": "handler",
	"replica.apply":        "replica.wait_durable",
	"querier":              "query",
	"lidar.read_bin":       "query",
	"store.get":            "querier",
	"core.region":          "querier",
	"lidar.write_bin":      "querier",
}

// linkSpans sets Parent on spans recorded without one: the span of the same
// frame carrying the parent's name that overlaps the child the most.
func linkSpans(spans []span, parents map[string]string) {
	type key struct{ frame, name string }
	index := make(map[key][]int)
	for i, s := range spans {
		index[key{s.Frame, s.Name}] = append(index[key{s.Frame, s.Name}], i)
	}
	for i := range spans {
		c := &spans[i]
		pname, ok := parents[c.Name]
		if !ok || c.Parent != 0 {
			continue
		}
		best := int64(-1)
		for _, j := range index[key{c.Frame, pname}] {
			p := spans[j]
			if o := min(c.End, p.End) - max(c.Start, p.Start); o > best {
				best, c.Parent = o, p.ID
			}
		}
	}
}

// ingestRun is what one ingest phase (untraced or traced) measured, burst
// by burst.
type ingestRun struct {
	lat      []float64 // from→ack in ms as measured, burst by burst
	ack      samples   // the same, by payload, on the nominal host
	late     []float64 // ms the open-loop generator ran behind
	perFrame []float64 // burst wall time / frames acked in it, ms, on the nominal host
	rates    []float64 // acked frames per second of each burst, as measured
	sent     int
	unacked  int
	acked    int
	busy     time.Duration // the bursts' wall time, first send → last ack
	cpu      time.Duration // process user+sys inside the bursts
}

// burstSeconds is how long the streams run between two yardstick readings.
// The host's disk changes speed from one second to the next, so a reading
// is only good for the fraction of a second around it.
const burstSeconds = 0.2

// ingestPhase drives every stream for the given time in bursts, paced or
// saturated, each burst bracketed by the I/O yardstick and drained before it
// ends; with maxFrames > 0 it is one burst of that many frames per stream.
func ingestPhase(s *serviceState, paced bool, seconds float64, maxFrames int) (*ingestRun, error) {
	r := &ingestRun{}
	interval := time.Second / pacedRate
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	lo := make([]int, len(s.streams))
	// The yardstick is read under the workload's own conditions: one round
	// trip at a time out of an idle system at the rate frames arrive when
	// paced, one chain per stream back to back when saturated.
	s.yard.gap, s.yard.parallel = 0, !paced
	if paced {
		s.yard.gap = interval / time.Duration(len(s.streams))
	}
	for first := true; first || (maxFrames <= 0 && time.Now().Before(deadline)); first = false {
		for i, st := range s.streams {
			lo[i] = len(st.from)
		}
		var wall, cpu time.Duration
		yard, err := s.yard.bracket(func() {
			cpu0 := cpuTime()
			start := time.Now()
			var wg sync.WaitGroup
			for i, st := range s.streams {
				wg.Add(1)
				go func(i int, st *stream) {
					defer wg.Done()
					if paced {
						frames := int(burstSeconds * pacedRate)
						if maxFrames > 0 {
							frames = maxFrames
						}
						// The second stream is half an interval out of phase.
						st.paced(s.pl, start.Add(time.Duration(i)*interval/2), interval, frames)
					} else {
						st.saturated(s.pl, start.Add(time.Duration(burstSeconds*float64(time.Second))), maxFrames)
					}
				}(i, st)
			}
			wg.Wait()
			wall, cpu = time.Since(start), cpuTime()-cpu0
		})
		if err != nil {
			return nil, err
		}
		acked := 0
		for i, st := range s.streams {
			if st.err != nil && !errors.Is(st.err, reliable.ErrFrameRejected) {
				return nil, fmt.Errorf("stream %s: %w", st.tenant, st.err)
			}
			r.sent += len(st.from) - lo[i]
			for n := lo[i]; n < len(st.from); n++ {
				if st.acked[n].IsZero() {
					r.unacked++
					continue
				}
				acked++
				d := ms(st.acked[n].Sub(st.from[n]))
				r.lat = append(r.lat, d)
				r.ack.addNominal(s.pl.of(n), d, d-yard+yardNominalMS)
			}
			r.late = append(r.late, st.late...)
			st.late = nil
		}
		if acked == 0 {
			return nil, fmt.Errorf("not one frame of a burst was acked")
		}
		r.acked += acked
		r.busy += wall
		r.cpu += cpu
		r.perFrame = append(r.perFrame, ms(wall)/float64(acked)*yardNominalMS/yard)
		r.rates = append(r.rates, float64(acked)/wall.Seconds())
	}
	return r, nil
}

// fps is acked frames per second of burst time, as measured.
func (r *ingestRun) fps() float64 { return float64(r.acked) / r.busy.Seconds() }

// cpuPerFrame is the process's user+system time per acked frame — both
// nodes, both clients and the garbage collector — in ms, as measured.
func (r *ingestRun) cpuPerFrame() float64 { return ms(r.cpu) / float64(r.acked) }

// frameMS is the write path's end-to-end figure, on the nominal host: the
// typical due → ack latency when paced, the wall time per acked frame (the
// inverse of the rate) when saturated.
func (r *ingestRun) frameMS(paced bool) float64 {
	if paced {
		return r.ack.typical()
	}
	return median(r.perFrame)
}

var ingestTenants = []string{"fleet-a", "fleet-b"}

// runIngest is ingest_paced / ingest_saturated, followed by the read phase
// and the durability gate.
func runIngest(cfg runConfig, paced bool) (*outcome, error) {
	var s *serviceState
	ref := &refClock{}
	setupS, err := repeatSetup(cfg, ref, func() (func() error, error) {
		var err error
		s, err = setupService(cfg, ingestTenants)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	defer s.close()

	// The read phase takes two fifths of the run: a query costs ten frames'
	// worth of time, and each payload needs several of both kinds.
	ingestSeconds, readSeconds := cfg.seconds*0.6, cfg.seconds*0.4
	var plain, run *ingestRun
	var tr *tracer
	if cfg.trace {
		if plain, err = ingestPhase(s, paced, ingestSeconds/3, cfg.iters); err != nil {
			return nil, err
		}
		ingestSeconds *= 2.0 / 3
		tr = s.startTrace()
	}
	if run, err = ingestPhase(s, paced, ingestSeconds, cfg.iters); err != nil {
		return nil, err
	}
	var rt readTimes
	qa, qf := s.streams[0].readBack(s.pl, ref, readSeconds, cfg.iters, &rt)
	rep, err := s.finish()
	if err != nil {
		return nil, err
	}

	sent, unacked := run.sent, run.unacked
	if plain != nil {
		sent, unacked = sent+plain.sent, unacked+plain.unacked
	}
	sent += len(s.streams) // the warm-up frames are durability-checked too
	out.attempted = sent + qa
	out.failed = unacked + rep.lost + qf
	out.count("frames_sent", sent)
	out.count("queries", qa)
	out.count("distinct_payloads", len(s.pl.data))

	if !cfg.trace {
		out.e2e["setup_s"] = setupS
		out.e2e["frame_ms"] = run.frameMS(paced)
		out.e2e["region_read_ms"] = rt.region.typical()
		out.e2e["frame_read_ms"] = rt.whole.typical()
		out.e2e["compression_ratio"] = s.pl.z.ratio()
		out.notes = append(out.notes, fmt.Sprintf("as measured: acked_per_s=%.1f bursts=%d yardstick_ms_p50=%.3f", run.fps(), len(run.rates), median(s.yard.all)))
		out.tails("ack_ms", run.lat)
		out.tails("query_region_ms", rt.region.all)
		out.tails("query_frame_ms", rt.whole.all)
		return out, nil
	}

	out.spans = tr.spans
	L := out.layer
	rep.layerInto(L, s, tr.spans, &rt)
	over := run.unacked
	for _, v := range run.lat {
		if v > ms(ackBudget) {
			over++
		}
	}
	L["reliable.over_budget_share"] = share(over, run.sent)
	L["reliable.gen_late_ms_p99"] = percentile(run.late, 99)
	L["reliable.fps"] = run.fps()
	L["reliable.fps_slice_p50"] = median(run.rates)
	L["reliable.fps_slice_min"] = percentile(run.rates, 0)
	L["reliable.cpu_ms_per_frame"] = run.cpuPerFrame()
	L["bench.trace_overhead_pct"] = 100 * (run.frameMS(paced) - plain.frameMS(paced)) / plain.frameMS(paced)
	L["bench.ref_ms_p50"] = median(ref.all)
	L["bench.yardstick_ms_p50"] = median(s.yard.all)
	return out, nil
}
