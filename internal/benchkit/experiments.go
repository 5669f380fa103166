package benchkit

import (
	"fmt"
	"runtime"
	"time"

	"dbgc"
	"dbgc/internal/cluster"
	"dbgc/internal/core"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/octree"
)

// Fig3Row is one radius step of Figure 3: octree compression ratio (a) and
// point density (b) for the concentric-sphere subsets of a city frame.
type Fig3Row struct {
	Radius  float64 // sphere radius in meters
	Points  int
	Ratio   float64 // octree compression ratio
	Density float64 // points per cubic meter
}

// Fig3 reproduces Figure 3: compress concentric subsets of a city frame
// with the octree at q and report ratio and density per radius.
func Fig3(q float64, radii []float64) ([]Fig3Row, error) {
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, 0, len(radii))
	for _, r := range radii {
		var sub geom.PointCloud
		for _, p := range pc {
			if p.Norm() <= r {
				sub = append(sub, p)
			}
		}
		if len(sub) == 0 {
			continue
		}
		enc, err := octree.Encode(sub, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{
			Radius:  r,
			Points:  len(sub),
			Ratio:   Ratio(len(sub), len(enc.Data)),
			Density: float64(len(sub)) / sphereVolume(r),
		})
	}
	return rows, nil
}

// Fig9Row is one (scene, codec, q) cell of Figure 9.
type Fig9Row struct {
	Scene lidar.SceneKind
	Codec string
	Q     float64
	Ratio float64 // mean compression ratio over frames
	Mbps  float64 // bandwidth requirement at 10 fps
}

// paperOptions is the configuration the paper's figures and tables are
// reproduced under: DefaultOptions with the paper's own §3.5 stream coders
// (Deflate on θ, arithmetic coding on φ, r and the lengths) in place of the
// per-stream coder choice that is this implementation's default.
func paperOptions(q float64) core.Options {
	opts := core.DefaultOptions(q)
	opts.ContextModel = false
	return opts
}

// dbgcCodec is DBGC under fixed options as a dbgc.Codec.
type dbgcCodec struct {
	name string
	opts func(q float64) core.Options
}

func (c dbgcCodec) Name() string { return c.name }

func (c dbgcCodec) Compress(pc geom.PointCloud, q float64) ([]byte, error) {
	data, _, err := core.Compress(pc, c.opts(q))
	return data, err
}

func (dbgcCodec) Decompress(data []byte) (geom.PointCloud, error) { return core.Decompress(data) }

// paperCodecs returns the codecs of the paper's evaluation (dbgc.Codecs)
// with DBGC under paperOptions.
func paperCodecs() []dbgc.Codec {
	codecs := dbgc.Codecs()
	for i, c := range codecs {
		if c.Name() == "DBGC" {
			codecs[i] = dbgcCodec{"DBGC", paperOptions}
		}
	}
	return codecs
}

// Fig9 reproduces Figure 9: mean compression ratio of every codec on every
// scene across the error bounds, DBGC with the paper's coders — and, in one
// more row a scene, "DBGC-default", under DefaultOptions, so the
// reproduction and the product are both on the page.
func Fig9(scenes []lidar.SceneKind, qs []float64, framesPerScene int) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, scene := range scenes {
		frames, err := Frames(scene, framesPerScene)
		if err != nil {
			return nil, err
		}
		for _, codec := range append(paperCodecs(), dbgcCodec{"DBGC-default", core.DefaultOptions}) {
			for _, q := range qs {
				var ratios, mbps []float64
				for _, pc := range frames {
					data, err := codec.Compress(pc, q)
					if err != nil {
						return nil, fmt.Errorf("%s on %s: %w", codec.Name(), scene, err)
					}
					ratios = append(ratios, Ratio(len(pc), len(data)))
					mbps = append(mbps, BandwidthMbps(len(data), 10))
				}
				rows = append(rows, Fig9Row{
					Scene: scene, Codec: codec.Name(), Q: q,
					Ratio: mean(ratios), Mbps: mean(mbps),
				})
			}
		}
	}
	return rows, nil
}

// Fig10Row is one manual-split point of Figure 10.
type Fig10Row struct {
	OctreeFraction float64 // fraction of nearest points sent to the octree
	Ratio          float64
}

// Fig10 reproduces Figure 10: compression ratio as the percentage of
// points coded by the octree is forced from 0% to 100%, plus the ratio the
// density-based clustering split achieves (returned separately).
func Fig10(q float64, fractions []float64) (rows []Fig10Row, clustered float64, err error) {
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return nil, 0, err
	}
	for _, f := range fractions {
		opts := paperOptions(q)
		opts.ForceOctreeFraction = f
		data, _, err := core.Compress(pc, opts)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, Fig10Row{OctreeFraction: f, Ratio: Ratio(len(pc), len(data))})
	}
	data, _, err := core.Compress(pc, paperOptions(q))
	if err != nil {
		return nil, 0, err
	}
	return rows, Ratio(len(pc), len(data)), nil
}

// Fig11Row is one (variant, q) cell of Figure 11.
type Fig11Row struct {
	Variant string
	Q       float64
	Ratio   float64
	// RelativeToFull is this variant's ratio divided by full DBGC's at
	// the same q (the paper reports -Radial ≈ 88%, -Group ≈ 85%,
	// -Conversion ≈ 29% on average).
	RelativeToFull float64
}

// Fig11 reproduces Figure 11: the -Radial, -Group, and -Conversion
// ablations against full DBGC on the campus scene.
func Fig11(qs []float64, framesPerScene int) ([]Fig11Row, error) {
	frames, err := Frames(lidar.Campus, framesPerScene)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"DBGC", func(o *core.Options) {}},
		{"-Radial", func(o *core.Options) { o.DisableRadialOpt = true }},
		{"-Group", func(o *core.Options) { o.Groups = 1 }},
		{"-Conversion", func(o *core.Options) { o.CartesianPolylines = true }},
	}
	var rows []Fig11Row
	full := map[float64]float64{}
	for _, v := range variants {
		for _, q := range qs {
			var ratios []float64
			for _, pc := range frames {
				opts := paperOptions(q)
				v.mod(&opts)
				data, _, err := core.Compress(pc, opts)
				if err != nil {
					return nil, fmt.Errorf("%s at q=%v: %w", v.name, q, err)
				}
				ratios = append(ratios, Ratio(len(pc), len(data)))
			}
			r := mean(ratios)
			if v.name == "DBGC" {
				full[q] = r
			}
			rel := 0.0
			if f := full[q]; f > 0 {
				rel = r / f
			}
			rows = append(rows, Fig11Row{Variant: v.name, Q: q, Ratio: r, RelativeToFull: rel})
		}
	}
	return rows, nil
}

// Table2Row is one (outlier mode, scene) cell of Table 2.
type Table2Row struct {
	Mode  string
	Scene lidar.SceneKind
	Ratio float64
}

// Table2 reproduces Table 2: quadtree vs octree vs uncompressed outlier
// handling across the four KITTI scenes at q.
func Table2(q float64, framesPerScene int) ([]Table2Row, error) {
	scenes := []lidar.SceneKind{lidar.Campus, lidar.City, lidar.Residential, lidar.Road}
	modes := []struct {
		name string
		mode core.OutlierMode
	}{
		{"Outlier", core.OutlierQuadtree},
		{"Octree", core.OutlierOctree},
		{"None", core.OutlierNone},
	}
	var rows []Table2Row
	for _, m := range modes {
		for _, scene := range scenes {
			frames, err := Frames(scene, framesPerScene)
			if err != nil {
				return nil, err
			}
			var ratios []float64
			for _, pc := range frames {
				opts := paperOptions(q)
				opts.OutlierMode = m.mode
				data, _, err := core.Compress(pc, opts)
				if err != nil {
					return nil, err
				}
				ratios = append(ratios, Ratio(len(pc), len(data)))
			}
			rows = append(rows, Table2Row{Mode: m.name, Scene: scene, Ratio: mean(ratios)})
		}
	}
	return rows, nil
}

// Fig12Row is one (codec, q) latency cell of Figure 12.
type Fig12Row struct {
	Codec      string
	Q          float64
	Compress   time.Duration
	Decompress time.Duration
}

// Fig12 reproduces Figure 12: compression and decompression time of every
// codec on the city scene across error bounds.
func Fig12(qs []float64, framesPerScene int) ([]Fig12Row, error) {
	frames, err := Frames(lidar.City, framesPerScene)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for _, codec := range paperCodecs() {
		for _, q := range qs {
			var cTot, dTot time.Duration
			for _, pc := range frames {
				t0 := time.Now()
				data, err := codec.Compress(pc, q)
				if err != nil {
					return nil, err
				}
				t1 := time.Now()
				if _, err := codec.Decompress(data); err != nil {
					return nil, err
				}
				t2 := time.Now()
				cTot += t1.Sub(t0)
				dTot += t2.Sub(t1)
			}
			n := time.Duration(len(frames))
			rows = append(rows, Fig12Row{Codec: codec.Name(), Q: q, Compress: cTot / n, Decompress: dTot / n})
		}
	}
	return rows, nil
}

// Fig13Result is the stage breakdown of Figure 13.
type Fig13Result struct {
	// Compression stage shares, fractions of total compression time.
	DEN, OCT, COR, ORG, SPA, OUT float64
	TotalCompress                time.Duration
	// Decompression split: sparse coordinate decompression vs the rest.
	TotalDecompress time.Duration
}

// Fig13 reproduces Figure 13: DBGC's per-stage time breakdown at q on the
// city scene.
func Fig13(q float64, framesPerScene int) (Fig13Result, error) {
	frames, err := Frames(lidar.City, framesPerScene)
	if err != nil {
		return Fig13Result{}, err
	}
	var res Fig13Result
	var den, oct, cor, org, spa, out, tot time.Duration
	for _, pc := range frames {
		data, stats, err := core.Compress(pc, paperOptions(q))
		if err != nil {
			return Fig13Result{}, err
		}
		den += stats.DEN
		oct += stats.OCT
		cor += stats.COR
		org += stats.ORG
		spa += stats.SPA
		out += stats.OUT
		tot += stats.DEN + stats.OCT + stats.COR + stats.ORG + stats.SPA + stats.OUT
		t0 := time.Now()
		if _, err := core.Decompress(data); err != nil {
			return Fig13Result{}, err
		}
		res.TotalDecompress += time.Since(t0)
	}
	if tot > 0 {
		res.DEN = float64(den) / float64(tot)
		res.OCT = float64(oct) / float64(tot)
		res.COR = float64(cor) / float64(tot)
		res.ORG = float64(org) / float64(tot)
		res.SPA = float64(spa) / float64(tot)
		res.OUT = float64(out) / float64(tot)
	}
	n := time.Duration(len(frames))
	res.TotalCompress = tot / n
	res.TotalDecompress /= n
	return res, nil
}

// ClusterResult compares exact and approximate clustering (§4.3).
type ClusterResult struct {
	DenseFrac, SparseFrac, OutlierFrac float64
	ExactTime, ApproxTime              time.Duration
	ClusterSpeedup                     float64
	ExactPipeline, ApproxPipeline      time.Duration
	PipelineSpeedup                    float64
	Jaccard                            float64
}

// ClusterExp reproduces the §4.3 clustering measurements on a city frame.
func ClusterExp(q float64) (ClusterResult, error) {
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return ClusterResult{}, err
	}
	var res ClusterResult
	params := cluster.DefaultParams(q)

	t0 := time.Now()
	exact := cluster.CellBased(pc, params)
	res.ExactTime = time.Since(t0)
	bounds := geom.Bounds(pc) // Compress has them from its pre-scan
	t0 = time.Now()
	approx := cluster.Approximate(pc, bounds, params)
	res.ApproxTime = time.Since(t0)
	if res.ApproxTime > 0 {
		res.ClusterSpeedup = float64(res.ExactTime) / float64(res.ApproxTime)
	}
	both, either := 0, 0
	for i := range pc {
		if exact.Dense[i] && approx.Dense[i] {
			both++
		}
		if exact.Dense[i] || approx.Dense[i] {
			either++
		}
	}
	if either > 0 {
		res.Jaccard = float64(both) / float64(either)
	}

	opts := core.DefaultOptions(q)
	opts.ExactClustering = true
	t0 = time.Now()
	if _, _, err := core.Compress(pc, opts); err != nil {
		return ClusterResult{}, err
	}
	res.ExactPipeline = time.Since(t0)
	opts.ExactClustering = false
	t0 = time.Now()
	_, stats, err := core.Compress(pc, opts)
	if err != nil {
		return ClusterResult{}, err
	}
	res.ApproxPipeline = time.Since(t0)
	if res.ApproxPipeline > 0 {
		res.PipelineSpeedup = float64(res.ExactPipeline) / float64(res.ApproxPipeline)
	}
	res.DenseFrac = float64(stats.NumDense) / float64(stats.NumPoints)
	res.SparseFrac = float64(stats.NumSparse) / float64(stats.NumPoints)
	res.OutlierFrac = float64(stats.NumOutliers) / float64(stats.NumPoints)
	return res, nil
}

// ThroughputResult captures the §4.4 bandwidth analysis.
type ThroughputResult struct {
	PointsPerFrame   int
	RawMbps          float64 // uncompressed at 10 fps (paper: ~96 Mbps)
	CompressedMbps   float64 // DBGC at q (paper: ~6 Mbps at 2 cm)
	FourGMbps        float64 // reference 4G uplink (paper: 8.2 Mbps)
	FitsFourG        bool
	CompressPerFrame time.Duration
	FramesPerSecond  float64 // sustained compression throughput
}

// Throughput reproduces the §4.4 throughput analysis on the city scene.
func Throughput(q float64, framesPerScene int) (ThroughputResult, error) {
	frames, err := Frames(lidar.City, framesPerScene)
	if err != nil {
		return ThroughputResult{}, err
	}
	var res ThroughputResult
	var totalBytes int
	var totalPts int
	var totalTime time.Duration
	for _, pc := range frames {
		t0 := time.Now()
		data, _, err := core.Compress(pc, core.DefaultOptions(q))
		if err != nil {
			return ThroughputResult{}, err
		}
		totalTime += time.Since(t0)
		totalBytes += len(data)
		totalPts += len(pc)
	}
	n := len(frames)
	res.PointsPerFrame = totalPts / n
	res.RawMbps = BandwidthMbps(res.PointsPerFrame*12, 10)
	res.CompressedMbps = BandwidthMbps(totalBytes/n, 10)
	res.FourGMbps = 8.2
	res.FitsFourG = res.CompressedMbps <= res.FourGMbps
	res.CompressPerFrame = totalTime / time.Duration(n)
	if totalTime > 0 {
		res.FramesPerSecond = float64(n) / totalTime.Seconds()
	}
	return res, nil
}

// MemoryResult is the §4.4 peak-memory measurement. The paper reads
// VmHWM; in-process Go heap growth is the portable analogue.
type MemoryResult struct {
	CompressHeapMB   float64
	DecompressHeapMB float64
}

// Memory measures heap growth during one compress and one decompress of a
// city frame at q.
func Memory(q float64) (MemoryResult, error) {
	pc, err := Frame(lidar.City, 1)
	if err != nil {
		return MemoryResult{}, err
	}
	heapDelta := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		d := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		if d < 0 {
			d = 0
		}
		return d / (1 << 20)
	}
	var data []byte
	var res MemoryResult
	var cerr error
	res.CompressHeapMB = heapDelta(func() {
		data, _, cerr = core.Compress(pc, core.DefaultOptions(q))
	})
	if cerr != nil {
		return MemoryResult{}, cerr
	}
	var dec geom.PointCloud
	res.DecompressHeapMB = heapDelta(func() {
		dec, cerr = core.Decompress(data)
	})
	if cerr != nil {
		return MemoryResult{}, cerr
	}
	_ = dec
	return res, nil
}
