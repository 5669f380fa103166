// Benchmarks, one per table and figure of the paper's evaluation (§4).
// Each benchmark drives the same code path the corresponding experiment in
// cmd/dbgc-bench measures, and reports the experiment's headline quantity
// via b.ReportMetric so `go test -bench` output carries the reproduced
// numbers. Full sweeps (all scenes × all error bounds) live in
// cmd/dbgc-bench; benchmarks run one representative configuration each.
package dbgc_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"dbgc"
	"dbgc/internal/benchkit"
	"dbgc/internal/cluster"
	"dbgc/internal/core"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/octree"
	"dbgc/internal/stream"
)

func cityFrame(b *testing.B) dbgc.PointCloud {
	b.Helper()
	pc, err := benchkit.Frame(lidar.City, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pc
}

// BenchmarkFig3OctreeVsRadius measures Figure 3: octree compression of the
// 20 m concentric subset, the radius at which the paper reports ratio ~22
// and density ~2 points/m³.
func BenchmarkFig3OctreeVsRadius(b *testing.B) {
	pc := cityFrame(b)
	var sub dbgc.PointCloud
	for _, p := range pc {
		if p.Norm() <= 20 {
			sub = append(sub, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		enc, err := octree.Encode(sub, benchkit.DefaultQ)
		if err != nil {
			b.Fatal(err)
		}
		ratio = benchkit.Ratio(len(sub), len(enc.Data))
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFig9RatioVsErrorBound measures Figure 9's headline cell: DBGC
// on the city scene at the 2 cm bound.
func BenchmarkFig9RatioVsErrorBound(b *testing.B) {
	pc := cityFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		data, stats, err := dbgc.Compress(pc, dbgc.DefaultOptions(benchkit.DefaultQ))
		if err != nil {
			b.Fatal(err)
		}
		_ = data
		ratio = stats.CompressionRatio()
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFig9Baselines covers the baseline codecs of Figure 9 at 2 cm.
func BenchmarkFig9Baselines(b *testing.B) {
	pc := cityFrame(b)
	for _, codec := range dbgc.Codecs() {
		codec := codec
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, err := codec.Compress(pc, benchkit.DefaultQ)
				if err != nil {
					b.Fatal(err)
				}
				ratio = benchkit.Ratio(len(pc), len(data))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkFig10OctreeFraction measures Figure 10's 50% manual-split
// point.
func BenchmarkFig10OctreeFraction(b *testing.B) {
	pc := cityFrame(b)
	opts := dbgc.DefaultOptions(benchkit.DefaultQ)
	opts.ForceOctreeFraction = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		data, _, err := dbgc.Compress(pc, opts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = benchkit.Ratio(len(pc), len(data))
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkFig11Ablations covers the ablations of Figure 11 on the campus
// scene at 2 cm.
func BenchmarkFig11Ablations(b *testing.B) {
	pc, err := benchkit.Frame(lidar.Campus, 1)
	if err != nil {
		b.Fatal(err)
	}
	variants := map[string]func(*dbgc.Options){
		"Full":        func(o *dbgc.Options) {},
		"-Radial":     func(o *dbgc.Options) { o.DisableRadialOpt = true },
		"-Group":      func(o *dbgc.Options) { o.Groups = 1 },
		"-Conversion": func(o *dbgc.Options) { o.CartesianPolylines = true },
	}
	for name, mod := range variants {
		mod := mod
		b.Run(name, func(b *testing.B) {
			opts := dbgc.DefaultOptions(benchkit.DefaultQ)
			mod(&opts)
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, _, err := dbgc.Compress(pc, opts)
				if err != nil {
					b.Fatal(err)
				}
				ratio = benchkit.Ratio(len(pc), len(data))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkTable2Outliers covers Table 2's outlier-handling modes on the
// campus scene.
func BenchmarkTable2Outliers(b *testing.B) {
	pc, err := benchkit.Frame(lidar.Campus, 1)
	if err != nil {
		b.Fatal(err)
	}
	modes := map[string]core.OutlierMode{
		"Outlier": core.OutlierQuadtree,
		"Octree":  core.OutlierOctree,
		"None":    core.OutlierNone,
	}
	for name, mode := range modes {
		mode := mode
		b.Run(name, func(b *testing.B) {
			opts := dbgc.DefaultOptions(benchkit.DefaultQ)
			opts.OutlierMode = mode
			b.ReportAllocs()
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, _, err := dbgc.Compress(pc, opts)
				if err != nil {
					b.Fatal(err)
				}
				ratio = benchkit.Ratio(len(pc), len(data))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// laneBox is the lane ahead of the vehicle, the box the repository
// benchmark's region reads ask for.
var laneBox = dbgc.AABB{Min: dbgc.Point{X: 5, Y: -5, Z: -3}, Max: dbgc.Point{X: 25, Y: 5, Z: 3}}

// wholeBox makes a region query return the whole frame, as that benchmark's
// whole-frame queries do.
var wholeBox = dbgc.AABB{Min: dbgc.Point{X: -1e4, Y: -1e4, Z: -1e4}, Max: dbgc.Point{X: 1e4, Y: 1e4, Z: 1e4}}

// BenchmarkFig12Latency measures Figure 12: compression and decompression
// latency of DBGC on the city scene at 2 cm.
func BenchmarkFig12Latency(b *testing.B) {
	pc := cityFrame(b)
	b.Run("Compress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(benchkit.DefaultQ)); err != nil {
				b.Fatal(err)
			}
		}
	})
	data, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(benchkit.DefaultQ))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decompress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dbgc.Decompress(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The sparse-heavy frame (a third of the points dense): polyline
	// organization and sparse coding are most of its compress time, the
	// radial groups most of its reads; `-cpu 1,2` shows how both scale with
	// width. A warm Encoder, as a streaming caller holds one.
	road, err := benchkit.Frame(lidar.Road, 1)
	if err != nil {
		b.Fatal(err)
	}
	enc := dbgc.NewEncoder(dbgc.DefaultOptions(benchkit.DefaultQ))
	roadData, _, err := dbgc.CompressWith(enc, road)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kitti-road/Compress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dbgc.CompressWith(enc, road); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kitti-road/Decompress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dbgc.Decompress(roadData); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kitti-road/DecompressRegion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dbgc.DecompressRegion(roadData, laneBox); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryAnswer measures the read path of the service outside the
// repository benchmark: what the node does to answer a box query
// (DecompressRegion, WriteBin into a buffer, netproto.Write), a loopback
// TCP connection, and what the client does with the answer (netproto.Read,
// ReadBin), for the whole frame and for the lane box. decompress and region
// are the floor under whole: Decompress of the same bytes, and the region
// decode of the whole box, each with nothing else running — inside an
// answer the decode leg reads higher than either, because the answer's
// three other buffers keep the collector busy. The legs are timed where
// they run and reported beside the total; run it with -cpu 1,2.
func BenchmarkQueryAnswer(b *testing.B) {
	data, _, err := dbgc.Compress(cityFrame(b), dbgc.DefaultOptions(benchkit.DefaultQ))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func() (dbgc.PointCloud, error)
	}{
		{"decompress", func() (dbgc.PointCloud, error) { return dbgc.Decompress(data) }},
		{"region", func() (dbgc.PointCloud, error) { return dbgc.DecompressRegion(data, wholeBox) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, c := range []struct {
		name string
		box  dbgc.AABB
	}{{"whole", wholeBox}, {"lane", laneBox}} {
		b.Run(c.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			// The client: every answer read off the wire and parsed, its
			// point count (or -1) and parse time handed back.
			type parsed struct {
				points int
				bin    time.Duration
			}
			answers := make(chan parsed)
			go func() {
				defer close(answers)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				for {
					m, err := netproto.Read(conn)
					if err != nil {
						return
					}
					start := time.Now()
					pts, err := lidar.ReadBin(bytes.NewReader(m.Payload))
					if err != nil {
						answers <- parsed{points: -1}
						return
					}
					answers <- parsed{len(pts), time.Since(start)}
				}
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			var decode, bin, wire time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				pts, err := dbgc.DecompressRegion(data, c.box)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				var buf bytes.Buffer
				if err := lidar.WriteBin(&buf, pts); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if err := netproto.Write(conn, netproto.Message{Kind: netproto.KindQueryResult, Seq: uint64(i), Payload: buf.Bytes()}); err != nil {
					b.Fatal(err)
				}
				got, ok := <-answers
				if !ok || got.points != len(pts) {
					b.Fatalf("the client parsed %d points (connection up: %v), %d were sent", got.points, ok, len(pts))
				}
				decode += t1.Sub(t0)
				bin += t2.Sub(t1) + got.bin
				wire += time.Since(t2) - got.bin
			}
			perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perOp(decode), "decode-ms/op")
			b.ReportMetric(perOp(bin), "bin-ms/op")
			b.ReportMetric(perOp(wire), "wire-ms/op")
		})
	}
}

// BenchmarkDecodeThroughput measures the decode path, reporting points per
// second. The sections and radial groups decode side by side on however
// many processors there are: `-cpu 1,2` gives the one- and two-worker rows.
func BenchmarkDecodeThroughput(b *testing.B) {
	pc := cityFrame(b)
	data, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(benchkit.DefaultQ))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := dbgc.Decompress(data); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(len(pc)*b.N)/elapsed/1e6, "Mpoints/s")
	}
}

// BenchmarkPipelineFPS measures end-to-end frames per second through the
// stream container. How many frames are in flight follows GOMAXPROCS: run it
// with -cpu 1,2 for the one-core and two-core rows.
func BenchmarkPipelineFPS(b *testing.B) {
	clouds, err := benchkit.Frames(lidar.City, 2)
	if err != nil {
		b.Fatal(err)
	}
	opts := dbgc.DefaultOptions(benchkit.DefaultQ)
	var container bytes.Buffer
	pack := func(b *testing.B) {
		container.Reset()
		w, err := stream.NewWriter(&container, opts, 10)
		if err != nil {
			b.Fatal(err)
		}
		for _, pc := range clouds {
			if err := w.WriteFrame(pc, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	read := func(b *testing.B) {
		r, err := stream.NewReader(bytes.NewReader(container.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for range clouds {
			if _, err := r.ReadFrame(); err != nil {
				b.Fatal(err)
			}
		}
	}
	pack(b) // Read's input, whichever legs -bench selects
	for _, leg := range []struct {
		name string
		run  func(*testing.B)
	}{{"Pack", pack}, {"Read", read}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				leg.run(b)
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(len(clouds)*b.N)/elapsed, "frames/s")
			}
		})
	}
}

// BenchmarkFig13Breakdown exercises the staged pipeline that Figure 13
// decomposes; stage shares are printed by `dbgc-bench -exp fig13`.
func BenchmarkFig13Breakdown(b *testing.B) {
	pc := cityFrame(b)
	b.ReportAllocs()
	var spaShare float64
	for i := 0; i < b.N; i++ {
		_, stats, err := dbgc.Compress(pc, dbgc.DefaultOptions(benchkit.DefaultQ))
		if err != nil {
			b.Fatal(err)
		}
		total := stats.DEN + stats.OCT + stats.COR + stats.ORG + stats.SPA + stats.OUT
		if total > 0 {
			spaShare = float64(stats.SPA) / float64(total)
		}
	}
	b.ReportMetric(spaShare*100, "SPA-%")
}

// BenchmarkClusteringApproxSpeedup compares the exact and approximate
// clustering of §4.3.
func BenchmarkClusteringApproxSpeedup(b *testing.B) {
	pc := cityFrame(b)
	params := cluster.DefaultParams(benchkit.DefaultQ)
	b.Run("Exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster.CellBased(pc, params)
		}
	})
	b.Run("Approximate", func(b *testing.B) {
		bounds := geom.Bounds(pc) // Compress has them from its pre-scan
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cluster.Approximate(pc, bounds, params)
		}
	})
}

// BenchmarkThroughput measures §4.4's sustained compression rate; the
// sensor produces 10 frames/s, so ns/op below 1e8 means real-time.
func BenchmarkThroughput(b *testing.B) {
	pc := cityFrame(b)
	opts := dbgc.DefaultOptions(benchkit.DefaultQ)
	var mbps float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := dbgc.Compress(pc, opts)
		if err != nil {
			b.Fatal(err)
		}
		mbps = benchkit.BandwidthMbps(len(data), 10)
	}
	b.ReportMetric(mbps, "Mbps@10fps")
}
