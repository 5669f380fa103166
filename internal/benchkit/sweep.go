package benchkit

import (
	"bytes"
	"runtime"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// StageMs is a per-stage compression time breakdown in milliseconds,
// mirroring core.Stats: clustering (DEN), octree coding (OCT) with its
// entropy share (ENT), coordinate conversion (COR), point organization
// (ORG), sparse stream compression (SPA), outlier compression (OUT).
type StageMs struct {
	DEN float64 `json:"den_ms"`
	OCT float64 `json:"oct_ms"`
	ENT float64 `json:"ent_ms"`
	COR float64 `json:"cor_ms"`
	ORG float64 `json:"org_ms"`
	SPA float64 `json:"spa_ms"`
	OUT float64 `json:"out_ms"`
}

// SweepPoint is one cell of the GOMAXPROCS × workers grid: single-frame
// pack/unpack latency with the sharded codec, the speedup against
// the grid's GOMAXPROCS=1 cell, streaming pipeline throughput with as many
// workers as cores, and where the compress time went.
type SweepPoint struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`

	CompressMs   float64 `json:"compress_ms"`
	DecompressMs float64 `json:"decompress_ms"`
	PackFPS      float64 `json:"pack_fps"`
	UnpackFPS    float64 `json:"unpack_fps"`

	CompressSpeedup   float64 `json:"compress_speedup_vs_g1"`
	DecompressSpeedup float64 `json:"decompress_speedup_vs_g1"`

	StreamPackFPS   float64 `json:"stream_pack_fps"`
	StreamUnpackFPS float64 `json:"stream_unpack_fps"`

	Stages StageMs `json:"stages"`
}

// SweepResult is the multi-core scaling experiment: the same sharded frame
// packed and unpacked at several GOMAXPROCS settings, with the shard
// overhead accounted against the legacy single-coder container.
type SweepResult struct {
	NumCPU         int     `json:"num_cpu"`
	Shards         int     `json:"shards"`
	PointsPerFrame int     `json:"points_per_frame"`
	FrameBytes     int     `json:"frame_bytes"`
	Ratio          float64 `json:"ratio"`

	// LegacyRatio and RatioDeltaPct report the sharding cost: the legacy
	// (Shards=1, v2) container ratio and the sharded container's relative
	// size drift in percent (positive = sharded is larger).
	LegacyRatio   float64 `json:"legacy_ratio"`
	RatioDeltaPct float64 `json:"ratio_delta_pct"`
	// ShardsOneIdentical confirms the compatibility contract measured on
	// this very frame: Shards=1 output is byte-identical to the legacy
	// container.
	ShardsOneIdentical bool `json:"shards_one_identical"`

	Sweep []SweepPoint `json:"sweep"`
}

// Sweep runs the GOMAXPROCS scaling experiment on the city scene at q:
// for each requested GOMAXPROCS value it re-times the sharded pack/unpack
// path and the frame pipeline, restoring the runtime's
// original setting before returning. iters controls repetitions per
// timing. Points above runtime.NumCPU() are still measured — on a small
// host they document the plateau instead of extrapolating it.
func Sweep(q float64, shards int, procs []int, iters int) (SweepResult, error) {
	if iters < 1 {
		iters = 1
	}
	if len(procs) == 0 {
		procs = []int{1, 2, 4, 8}
	}
	res := SweepResult{NumCPU: runtime.NumCPU(), Shards: shards}
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return res, err
	}
	res.PointsPerFrame = len(pc)

	legacyOpts := dbgc.DefaultOptions(q)
	legacyData, _, err := dbgc.Compress(pc, legacyOpts)
	if err != nil {
		return res, err
	}
	res.LegacyRatio = Ratio(len(pc), len(legacyData))

	oneOpts := legacyOpts
	oneOpts.Shards = 1
	oneData, _, err := dbgc.Compress(pc, oneOpts)
	if err != nil {
		return res, err
	}
	res.ShardsOneIdentical = bytes.Equal(legacyData, oneData)

	opts := legacyOpts
	opts.Shards = shards
	data, _, err := dbgc.Compress(pc, opts)
	if err != nil {
		return res, err
	}
	res.FrameBytes = len(data)
	res.Ratio = Ratio(len(pc), len(data))
	res.RatioDeltaPct = (float64(len(data))/float64(len(legacyData)) - 1) * 100

	const nFrames = 4
	clouds, err := Frames(lidar.City, nFrames)
	if err != nil {
		return res, err
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, g := range procs {
		if g < 1 {
			continue
		}
		runtime.GOMAXPROCS(g)
		pt := SweepPoint{GOMAXPROCS: g, Workers: g}

		d, _, err := timeOp(iters, func() error {
			_, _, err := dbgc.Compress(pc, opts)
			return err
		})
		if err != nil {
			return res, err
		}
		pt.CompressMs = d.Seconds() * 1e3
		pt.PackFPS = 1 / d.Seconds()

		d, _, err = timeOp(iters, func() error {
			_, err := dbgc.Decompress(data)
			return err
		})
		if err != nil {
			return res, err
		}
		pt.DecompressMs = d.Seconds() * 1e3
		pt.UnpackFPS = 1 / d.Seconds()

		_, stats, err := dbgc.Compress(pc, opts)
		if err != nil {
			return res, err
		}
		ms := func(t time.Duration) float64 { return t.Seconds() * 1e3 }
		pt.Stages = StageMs{
			DEN: ms(stats.DEN), OCT: ms(stats.OCT), ENT: ms(stats.ENT),
			COR: ms(stats.COR), ORG: ms(stats.ORG), SPA: ms(stats.SPA),
			OUT: ms(stats.OUT),
		}

		if pt.StreamPackFPS, pt.StreamUnpackFPS, err = streamFPS(clouds, opts, g); err != nil {
			return res, err
		}
		res.Sweep = append(res.Sweep, pt)
	}
	if len(res.Sweep) > 0 {
		base := res.Sweep[0]
		for i := range res.Sweep {
			if res.Sweep[i].CompressMs > 0 {
				res.Sweep[i].CompressSpeedup = base.CompressMs / res.Sweep[i].CompressMs
			}
			if res.Sweep[i].DecompressMs > 0 {
				res.Sweep[i].DecompressSpeedup = base.DecompressMs / res.Sweep[i].DecompressMs
			}
		}
	}
	return res, nil
}

// streamFPS packs and re-reads a short all-I stream with workers pipeline
// workers, returning end-to-end frames per second for both directions.
func streamFPS(clouds []dbgc.PointCloud, opts dbgc.Options, workers int) (packFPS, unpackFPS float64, err error) {
	n := float64(len(clouds))
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, opts, 10)
	if err != nil {
		return 0, 0, err
	}
	if workers > 1 {
		if err := w.EnablePipeline(workers); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	for _, c := range clouds {
		if _, err := w.WriteFrame(c, nil); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	packFPS = n / time.Since(t0).Seconds()

	r, err := stream.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, err
	}
	if workers > 1 {
		if err := r.EnablePipeline(workers); err != nil {
			return 0, 0, err
		}
	}
	t0 = time.Now()
	for range clouds {
		if _, err := r.ReadFrame(); err != nil {
			return 0, 0, err
		}
	}
	unpackFPS = n / time.Since(t0).Seconds()
	return packFPS, unpackFPS, nil
}
