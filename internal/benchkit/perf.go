package benchkit

import (
	"bytes"
	"runtime"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// PerfResult reports the performance-architecture experiment: decode and
// compress time of the one code path at GOMAXPROCS 1 and at the process's
// own GOMAXPROCS, per-op allocation counts (scratch reuse), and frame
// pipeline throughput. All numbers are honest about the machine — NumCPU
// records the cores actually available and GOMAXPROCS what the runtime was
// allowed to use, and on a single-core host the two widths are expected to
// land near 1.0x of each other.
type PerfResult struct {
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	PointsPerFrame int     `json:"points_per_frame"`
	FrameBytes     int     `json:"frame_bytes"`
	Ratio          float64 `json:"ratio"`

	OneWorkerDecodeMs  float64 `json:"one_worker_decode_ms"`
	AllWorkersDecodeMs float64 `json:"all_workers_decode_ms"`
	DecodeSpeedup      float64 `json:"decode_speedup"`

	OneWorkerDecodeAllocs  float64 `json:"one_worker_decode_allocs"`
	AllWorkersDecodeAllocs float64 `json:"all_workers_decode_allocs"`

	OneWorkerCompressMs  float64 `json:"one_worker_compress_ms"`
	AllWorkersCompressMs float64 `json:"all_workers_compress_ms"`
	CompressSpeedup      float64 `json:"compress_speedup"`

	// Encode experiment: steady-state reusable-Encoder timings and per-op
	// allocation counts at the process's GOMAXPROCS, plus byte-identity of
	// the frames the two widths wrote.
	OneWorkerCompressAllocs float64 `json:"one_worker_compress_allocs"`
	EncoderCompressMs       float64 `json:"encoder_compress_ms"`
	EncoderCompressAllocs   float64 `json:"encoder_compress_allocs"`
	CompressIdentical       bool    `json:"compress_identical"`

	PipelineFrames    int     `json:"pipeline_frames"`
	PipelineWorkers   int     `json:"pipeline_workers"`
	SerialPackFPS     float64 `json:"serial_pack_fps"`
	PipelinedPackFPS  float64 `json:"pipelined_pack_fps"`
	SerialReadFPS     float64 `json:"serial_read_fps"`
	PipelinedReadFPS  float64 `json:"pipelined_read_fps"`
	PipelineIdentical bool    `json:"pipeline_identical"`
}

// timeOp runs fn iters times and returns (per-op duration, per-op mallocs).
func timeOp(iters int, fn func() error) (time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d / time.Duration(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

// atOneWorker runs fn with GOMAXPROCS 1 and restores the setting.
func atOneWorker(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return fn()
}

// Perf measures decode and compress at one worker and at all of them,
// scratch-reuse allocation counts, and the frame pipeline, on the city
// scene at q. iters controls the repetitions per measurement (at least 1).
func Perf(q float64, iters int) (PerfResult, error) {
	if iters < 1 {
		iters = 1
	}
	res := PerfResult{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return res, err
	}
	res.PointsPerFrame = len(pc)

	opts := dbgc.DefaultOptions(q)
	data, stats, err := dbgc.Compress(pc, opts)
	if err != nil {
		return res, err
	}
	res.FrameBytes = len(data)
	res.Ratio = stats.CompressionRatio()

	// Decode and compress at one worker and at all, with per-op
	// allocation counts.
	decode := func() error {
		_, err := dbgc.Decompress(data)
		return err
	}
	var onedata []byte
	compress := func() error {
		var err error
		onedata, _, err = dbgc.Compress(pc, opts)
		return err
	}
	var d time.Duration
	var allocs float64
	if err := atOneWorker(func() error {
		if d, allocs, err = timeOp(iters, decode); err != nil {
			return err
		}
		res.OneWorkerDecodeMs, res.OneWorkerDecodeAllocs = d.Seconds()*1e3, allocs
		d, allocs, err = timeOp(iters, compress)
		res.OneWorkerCompressMs, res.OneWorkerCompressAllocs = d.Seconds()*1e3, allocs
		return err
	}); err != nil {
		return res, err
	}
	res.CompressIdentical = bytes.Equal(data, onedata)
	if d, allocs, err = timeOp(iters, decode); err != nil {
		return res, err
	}
	res.AllWorkersDecodeMs, res.AllWorkersDecodeAllocs = d.Seconds()*1e3, allocs
	if res.AllWorkersDecodeMs > 0 {
		res.DecodeSpeedup = res.OneWorkerDecodeMs / res.AllWorkersDecodeMs
	}
	if d, _, err = timeOp(iters, compress); err != nil {
		return res, err
	}
	res.AllWorkersCompressMs = d.Seconds() * 1e3
	if res.AllWorkersCompressMs > 0 {
		res.CompressSpeedup = res.OneWorkerCompressMs / res.AllWorkersCompressMs
	}

	// Steady-state reusable Encoder: same options, scratch kept across
	// frames.
	enc := dbgc.NewEncoder(opts)
	if _, _, err := enc.Compress(pc); err != nil { // warm the scratch
		return res, err
	}
	d, allocs, err = timeOp(iters, func() error {
		_, _, err := enc.Compress(pc)
		return err
	})
	if err != nil {
		return res, err
	}
	res.EncoderCompressMs = d.Seconds() * 1e3
	res.EncoderCompressAllocs = allocs

	// Frame pipeline: pack and read a short all-I stream serially and
	// pipelined, reporting frames per second end to end.
	const nFrames = 4
	res.PipelineFrames = nFrames
	res.PipelineWorkers = res.GOMAXPROCS
	clouds, err := Frames(lidar.City, nFrames)
	if err != nil {
		return res, err
	}
	pack := func(workers int) ([]byte, float64, error) {
		var buf bytes.Buffer
		w, err := stream.NewWriter(&buf, opts, 10)
		if err != nil {
			return nil, 0, err
		}
		if workers > 1 {
			if err := w.EnablePipeline(workers); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		for _, c := range clouds {
			if _, err := w.WriteFrame(c, nil); err != nil {
				return nil, 0, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, 0, err
		}
		return buf.Bytes(), nFrames / time.Since(t0).Seconds(), nil
	}
	serialPack, fps, err := pack(1)
	if err != nil {
		return res, err
	}
	res.SerialPackFPS = fps
	pipedPack, fps, err := pack(res.PipelineWorkers)
	if err != nil {
		return res, err
	}
	res.PipelinedPackFPS = fps
	res.PipelineIdentical = bytes.Equal(serialPack, pipedPack)

	read := func(workers int) (float64, error) {
		r, err := stream.NewReader(bytes.NewReader(serialPack))
		if err != nil {
			return 0, err
		}
		if workers > 1 {
			if err := r.EnablePipeline(workers); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for i := 0; i < nFrames; i++ {
			if _, err := r.ReadFrame(); err != nil {
				return 0, err
			}
		}
		return nFrames / time.Since(t0).Seconds(), nil
	}
	if res.SerialReadFPS, err = read(1); err != nil {
		return res, err
	}
	if res.PipelinedReadFPS, err = read(res.PipelineWorkers); err != nil {
		return res, err
	}
	return res, nil
}
