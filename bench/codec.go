package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dbgc"
	"dbgc/internal/core"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/octree"
	"dbgc/internal/outlier"
	"dbgc/internal/sparse"
)

// codecState is what a codec workload sets up: its frames and one reusable
// encoder with the default options, whatever dialect those select.
type codecState struct {
	frames []frame
	order  []int
	opts   dbgc.Options
	enc    *dbgc.Encoder
	simMS  []float64
	ref    *refClock
}

// codecLayouts is the number of distinct frames of a codec workload.
const codecLayouts = 8

func setupCodec(kinds []lidar.SceneKind, layouts int, seed int64) (*codecState, error) {
	s := &codecState{opts: dbgc.DefaultOptions(q)}
	if s.opts.OutlierMode != dbgc.OutlierQuadtree {
		return nil, fmt.Errorf("stage replay knows the quadtree outlier coder only, default options select mode %d", s.opts.OutlierMode)
	}
	var err error
	if s.frames, err = makeFrames(kinds, layouts, seed, &s.simMS); err != nil {
		return nil, err
	}
	s.order = rotation(len(s.frames), seed)
	s.enc = dbgc.NewEncoder(s.opts)
	// Untimed warm-up: fills the codec's sync.Pool scratch and the
	// encoder's buffers so the first timed frame is not the one that
	// allocates them.
	for _, f := range s.frames[:min(2, len(s.frames))] {
		data, _, err := s.enc.Compress(f.pc)
		if err != nil {
			return nil, fmt.Errorf("warm-up compress: %w", err)
		}
		if _, err := dbgc.Decompress(data); err != nil {
			return nil, fmt.Errorf("warm-up decompress: %w", err)
		}
		if _, err := dbgc.DecompressRegion(data, laneBox); err != nil {
			return nil, fmt.Errorf("warm-up region decode: %w", err)
		}
	}
	return s, nil
}

// codecTimes holds the per-call timings of a codec loop, by input frame.
type codecTimes struct {
	compress, decompress, region samples
}

// sizes sums what the frame set compressed to, one entry per distinct
// frame, so ratios are exact whatever number of iterations ran.
type sizes struct {
	seen                                          map[int]bool
	points, bytes                                 int
	dense, sparse, outliers, lines                int
	bytesDense, bytesSparse, bytesOutlier, inLane int
}

func (z *sizes) add(input int, st *dbgc.Stats, lane int) {
	if z.seen == nil {
		z.seen = make(map[int]bool)
	}
	if z.seen[input] {
		return
	}
	z.seen[input] = true
	z.points += st.NumPoints
	z.bytes += st.BytesTotal
	z.dense += st.NumDense
	z.sparse += st.NumSparse
	z.outliers += st.NumOutliers
	z.lines += st.NumLines
	z.bytesDense += st.BytesDense
	z.bytesSparse += st.BytesSparse
	z.bytesOutlier += st.BytesOutlier
	z.inLane += lane
}

func (z *sizes) ratio() float64 { return 12 * float64(z.points) / float64(z.bytes) }

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layerInto writes the size-derived per-layer metrics.
func (z *sizes) layerInto(m map[string]float64) {
	m["cluster.dense_share"] = share(z.dense, z.points)
	m["octree.bytes_per_point"] = share(z.bytesDense, z.dense)
	m["polyline.points_per_line"] = share(z.sparse, z.lines)
	m["sparse.bytes_per_point"] = share(z.bytesSparse, z.sparse)
	m["sparse.outlier_share"] = share(z.outliers, z.sparse+z.outliers)
	m["outlier.bytes_per_point"] = share(z.bytesOutlier, z.outliers)
	m["core.region_points_share"] = share(z.inLane, z.points)
}

// allocs accumulates runtime.MemStats deltas around codec calls.
type allocs struct {
	compressBytes, compressObjs, decompressBytes []float64
}

// iterate runs one compress → decompress → region decode of input frame i,
// timing each call, then checks the outputs outside the timers. It returns
// the number of failed operations (of 3 attempted). With a tracer it also
// records the call spans and replays every stage under them.
func (s *codecState) iterate(i int, ct *codecTimes, z *sizes, tr *tracer, al *allocs) int {
	f := s.frames[i]
	frameID := fmt.Sprintf("%s/%d", f.kind, f.layout)
	var m0, m1, m2 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}

	var (
		data                   []byte
		st                     *dbgc.Stats
		dec, reg               dbgc.PointCloud
		err, derr, rerr        error
		t0, t1, t2, t3, t4, t5 time.Time
	)
	scaleC := s.ref.bracket(func() {
		t0 = time.Now()
		data, st, err = s.enc.Compress(f.pc)
		t1 = time.Now()
	})
	if err != nil {
		return 3
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	scaleD := s.ref.bracket(func() {
		t2 = time.Now()
		dec, derr = dbgc.Decompress(data)
		t3 = time.Now()
		if tr != nil {
			runtime.ReadMemStats(&m2)
		}
		t4 = time.Now()
		reg, rerr = dbgc.DecompressRegion(data, laneBox)
		t5 = time.Now()
	})

	ct.compress.add(i, ms(t1.Sub(t0)), scaleC)
	ct.decompress.add(i, ms(t3.Sub(t2)), scaleD)
	ct.region.add(i, ms(t5.Sub(t4)), scaleD)

	// Correctness gate, outside every timer. The mapping lives in the
	// encoder's scratch until the next Compress, so check before replaying.
	failed := 0
	if derr != nil {
		failed += 2 // no full decode to check the region against either
	} else {
		if _, err := dbgc.VerifyErrorBound(f.pc, dec, st.Mapping, q); err != nil {
			failed++
		}
		if rerr != nil || !sameMultiset(reg, boxFilter(dec, laneBox)) {
			failed++
		}
	}
	z.add(i, st, len(reg))

	if tr != nil && failed == 0 {
		al.compressBytes = append(al.compressBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		al.compressObjs = append(al.compressObjs, float64(m1.Mallocs-m0.Mallocs))
		al.decompressBytes = append(al.decompressBytes, float64(m2.TotalAlloc-m1.TotalAlloc)/(1<<20))
		if err := s.replayStages(tr, frameID, f.pc, data, [3][2]time.Time{{t0, t1}, {t2, t3}, {t4, t5}}); err != nil {
			failed++
		}
	}
	return failed
}

// replayStages records the three call spans and re-runs each of their
// stages through the layer's public function, as children. The replay
// passes the options Compress derives from the same dbgc.Options and the
// dialect flags the container declares, so it follows the default dialect.
func (s *codecState) replayStages(tr *tracer, frameID string, pc dbgc.PointCloud, data []byte, call [3][2]time.Time) error {
	o := s.opts
	timeIt := func(fn func() error) (time.Duration, error) {
		t := time.Now()
		err := fn()
		return time.Since(t), err
	}

	// Compress: cluster → octree → sparse (conversion, organization,
	// stream coding) → outliers; what is left is gather, container, CRC
	// and mapping.
	r := tr.replayUnder(tr.add(0, frameID, "core.compress", call[0][0], call[0][1]), frameID, call[0][0])
	var denseIdx, sparseIdx []int32
	d, _ := timeIt(func() error { denseIdx, sparseIdx = core.SplitPoints(pc, o); return nil })
	r.stage("cluster.split", d)
	densePts := make(dbgc.PointCloud, len(denseIdx))
	for k, i := range denseIdx {
		densePts[k] = pc[i]
	}
	d, err := timeIt(func() error {
		_, err := octree.EncodeWith(densePts, o.Q, octree.EncodeOptions{Shards: o.Shards, BlockPack: o.BlockPack, Context: o.ContextModel})
		return err
	})
	if err != nil {
		return err
	}
	r.stage("octree.encode", d)
	var se sparse.Encoded
	d, err = timeIt(func() error {
		var err error
		se, err = sparse.Encode(pc, sparseIdx, sparse.Options{Q: o.Q, Groups: o.Groups, UTheta: o.UTheta, UPhi: o.UPhi,
			Shards: o.Shards, BlockPack: o.BlockPack, Context: o.ContextModel})
		return err
	})
	if err != nil {
		return err
	}
	sparseStart := r.cursor
	// Conversion and organization are reported by the call itself; they
	// nest inside it.
	tr.add(r.stage("sparse.encode", d), frameID, "polyline.organize", sparseStart, sparseStart.Add(se.TimeConvert+se.TimeOrganize))
	outPts := make(dbgc.PointCloud, len(se.OutlierIdx))
	for k, i := range se.OutlierIdx {
		outPts[k] = pc[i]
	}
	d, err = timeIt(func() error {
		_, err := outlier.EncodeWith(outPts, o.Q, outlier.EncodeOptions{Shards: o.Shards, BlockPack: o.BlockPack})
		return err
	})
	if err != nil {
		return err
	}
	r.stage("outlier.encode", d)

	// Decompress: the three section decoders, on the section bytes the
	// container parser hands out.
	_, reports, err := dbgc.DecompressPartial(data, dbgc.DecompressOptions{})
	if err != nil {
		return err
	}
	lay, err := core.Inspect(data)
	if err != nil {
		return err
	}
	octOpts := octree.DecodeOptions{Sharded: lay.ShardedStreams, BlockPack: lay.BlockPacked, Context: lay.ContextModeled}
	r = tr.replayUnder(tr.add(0, frameID, "core.decompress", call[1][0], call[1][1]), frameID, call[1][0])
	for _, st := range []struct {
		name string
		fn   func() error
	}{
		{"octree.decode", func() error {
			_, err := octree.DecodeWith(reports[dbgc.SectionDense].Raw, octOpts)
			return err
		}},
		{"sparse.decode", func() error {
			_, err := sparse.DecodeWith(reports[dbgc.SectionSparse].Raw, sparse.DecodeOptions{})
			return err
		}},
		{"outlier.decode", func() error {
			_, err := outlier.DecodeWith(reports[dbgc.SectionOutlier].Raw, outlier.DecodeOptions{Sharded: lay.ShardedStreams, BlockPack: lay.BlockPacked})
			return err
		}},
	} {
		d, err := timeIt(st.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		r.stage(st.name, d)
	}

	// Region decode: the pruned octree walk is the only stage with a
	// public entry of its own.
	r = tr.replayUnder(tr.add(0, frameID, "core.region", call[2][0], call[2][1]), frameID, call[2][0])
	d, err = timeIt(func() error {
		_, err := octree.DecodeRegionWith(reports[dbgc.SectionDense].Raw, laneBox, octOpts)
		return err
	})
	if err != nil {
		return err
	}
	r.stage("octree.region", d)
	return nil
}

// loop iterates over the rotation until the deadline passes or maxIters
// (when positive) is reached, always finishing at least one pass over the
// distinct frames so every ratio covers the whole frame set.
func (s *codecState) loop(seconds float64, maxIters int, tr *tracer, al *allocs, ct *codecTimes, z *sizes) (attempted, failed int) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; ; n++ {
		if maxIters > 0 && n >= maxIters {
			break
		}
		if maxIters <= 0 && n >= len(s.order) && time.Now().After(deadline) {
			break
		}
		failed += s.iterate(s.order[n%len(s.order)], ct, z, tr, al)
		attempted += 3
	}
	return attempted, failed
}

// binCodecMS is the median time of WriteBin + ReadBin of one frame.
func binCodecMS(pc dbgc.PointCloud, reps int) (float64, error) {
	var v []float64
	for i := 0; i < reps; i++ {
		var buf bytes.Buffer
		t := time.Now()
		if err := lidar.WriteBin(&buf, pc); err != nil {
			return 0, err
		}
		if _, err := lidar.ReadBin(&buf); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(t)))
	}
	return median(v), nil
}

// wireFrameUS is the median time, in µs, of netproto.Write + Read of one
// compressed-frame message through a bytes.Buffer: framing and both CRCs,
// no socket.
func wireFrameUS(payload []byte, reps int) float64 {
	var v []float64
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		buf.Reset()
		t := time.Now()
		err := netproto.Write(&buf, netproto.Message{Kind: netproto.KindCompressed, Seq: uint64(i), Payload: payload})
		if err == nil {
			_, err = netproto.Read(&buf)
		}
		if err != nil {
			return 0 // a bytes.Buffer round trip of a frame just written cannot fail
		}
		v = append(v, ms(time.Since(t))*1e3)
	}
	return median(v)
}

// runCodec is the codec_city / codec_road workload: a closed loop on one
// goroutine, no wire, store or replica work at all.
func runCodec(cfg runConfig, kind lidar.SceneKind) (*outcome, error) {
	layouts := codecLayouts
	if cfg.frames > 0 {
		layouts = cfg.frames
	}
	var s *codecState
	ref := &refClock{}
	setupS, err := repeatSetup(cfg, ref, func() (func() error, error) {
		var err error
		s, err = setupCodec([]lidar.SceneKind{kind}, layouts, cfg.seed)
		return func() error { return nil }, err
	})
	if err != nil {
		return nil, err
	}
	s.ref = ref
	out := newOutcome()
	var ct codecTimes
	var z sizes

	if !cfg.trace {
		out.attempted, out.failed = s.loop(cfg.seconds, cfg.iters, nil, nil, &ct, &z)
		out.e2e["setup_s"] = setupS
		out.e2e["frame_ms"] = ct.compress.typical()
		out.e2e["frame_read_ms"] = ct.decompress.typical()
		out.e2e["region_read_ms"] = ct.region.typical()
		out.e2e["compression_ratio"] = z.ratio()
		out.count("iterations", len(ct.compress.all))
		out.count("distinct_frames", len(s.frames))
		out.tails("compress_ms", ct.compress.all)
		out.tails("decompress_ms", ct.decompress.all)
		out.tails("region_ms", ct.region.all)
		return out, nil
	}

	// Traced run: a third of the time untraced to price the tracing, the
	// rest with spans and stage replays.
	var plain codecTimes
	a, f := s.loop(cfg.seconds/3, cfg.iters, nil, nil, &plain, &z)
	tr := newTracer()
	var al allocs
	a2, f2 := s.loop(cfg.seconds*2/3, cfg.iters, tr, &al, &ct, &z)
	out.attempted, out.failed = a+a2, f+f2
	out.spans = tr.spans
	out.count("iterations_untraced", len(plain.compress.all))
	out.count("iterations_traced", len(ct.compress.all))

	L := out.layer
	z.layerInto(L)
	_, self := layerMedians(L, tr.spans)
	L["core.compress_self_ms_p50"] = median(self["core.compress"])
	L["core.decompress_self_ms_p50"] = median(self["core.decompress"])
	_, L["core.compress_ms_tail"] = tail(ct.compress.all)
	_, L["core.decompress_ms_tail"] = tail(ct.decompress.all)
	_, L["core.region_ms_tail"] = tail(ct.region.all)
	L["core.region_vs_full"] = ct.region.typical() / ct.decompress.typical()
	L["core.compress_alloc_mb"] = median(al.compressBytes)
	L["core.compress_allocs"] = median(al.compressObjs)
	L["core.decompress_alloc_mb"] = median(al.decompressBytes)
	L["lidar.simulate_ms_p50"] = median(s.simMS)
	data, _, err := s.enc.Compress(s.frames[0].pc)
	if err != nil {
		return nil, err
	}
	if L["lidar.bin_codec_ms_p50"], err = binCodecMS(s.frames[0].pc, 15); err != nil {
		return nil, err
	}
	L["netproto.frame_us_p50"] = wireFrameUS(data, 15)
	L["bench.trace_overhead_pct"] = 100 * (ct.compress.typical() - plain.compress.typical()) / plain.compress.typical()
	L["bench.ref_ms_p50"] = median(ref.all)
	return out, nil
}
