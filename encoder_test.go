package dbgc_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"dbgc"
	"dbgc/internal/benchkit"
	"dbgc/internal/core"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
)

// TestEncoderMatchesCompress: for every outlier mode, at one worker and at
// four, the reusable Encoder must be byte-identical and Mapping-identical to the
// one-shot Compress, deterministic across repeated calls on the same
// Encoder, and the decoded cloud must verify against the error bound.
func TestEncoderMatchesCompress(t *testing.T) {
	pc, err := benchkit.Frame(lidar.City, 1)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		mode dbgc.OutlierMode
	}{
		{"quadtree", dbgc.OutlierQuadtree},
		{"octree", dbgc.OutlierOctree},
		{"none", dbgc.OutlierNone},
	}
	for _, m := range modes {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", m.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				opts := dbgc.DefaultOptions(0.02)
				opts.OutlierMode = m.mode

				want, wantStats, err := dbgc.Compress(pc, opts)
				if err != nil {
					t.Fatal(err)
				}
				enc := dbgc.NewEncoder(opts)
				// Two rounds on the same Encoder: the second runs on warm
				// scratch and must still be deterministic.
				for round := 0; round < 2; round++ {
					got, stats, err := dbgc.CompressWith(enc, pc)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("round %d: encoder output differs: %d vs %d bytes",
							round, len(got), len(want))
					}
					if len(stats.Mapping) != len(wantStats.Mapping) {
						t.Fatalf("round %d: mapping sizes differ", round)
					}
					for i := range stats.Mapping {
						if stats.Mapping[i] != wantStats.Mapping[i] {
							t.Fatalf("round %d: mapping differs at %d", round, i)
						}
					}
					back, err := dbgc.Decompress(got)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if _, err := dbgc.VerifyErrorBound(pc, back, stats.Mapping, opts.Q); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
			})
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the mean
// number of heap allocations of runs calls of f, after one call to warm up,
// at whatever GOMAXPROCS the caller set. Helper goroutines allocate too,
// so the count is the process's, not the calling goroutine's.
func mallocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestEncoderSteadyStateAllocs bounds the per-frame allocation count of a
// warm Encoder, on the dense-heavy and on the sparse-heavy frame. What is
// left is the returned buffers, one slice per radial group for its lines'
// points, its payload and its index lists, a few slices per quadtree and
// octree, the closures and per-chunk counts of the chunked passes, and
// slice growth: 360 measured on the city frame and 325 on the road frame at
// GOMAXPROCS 1; 590-740 and 620-740 at GOMAXPROCS 4 (on two cores), where every
// worker encoding a group or a shard holds a pooled scratch of its own and
// a garbage collection that empties the pools costs that many more. A
// fan-out costs its shared state and a closure or two per stage, not per
// point or per line. The bound leaves room for the pools being emptied
// between runs (by a garbage collection, or by the race detector, under
// which sync.Pool drops a quarter of what is put back: ~950 measured at
// GOMAXPROCS 1), not for a slice per polyline (~4k on the road frame) or
// four per quadtree node per level (~11k), which is where the count stood
// before. With the race detector on and several workers the pools drop
// several scratches a frame (~1300 measured), and that leg only logs.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	for _, kind := range []lidar.SceneKind{lidar.City, lidar.Road} {
		pc, err := benchkit.Frame(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			enc := dbgc.NewEncoder(dbgc.DefaultOptions(0.02))
			prev := runtime.GOMAXPROCS(procs)
			allocs := mallocsPerRun(5, func() {
				if _, _, err := dbgc.CompressWith(enc, pc); err != nil {
					t.Error(err)
				}
			})
			runtime.GOMAXPROCS(prev)
			t.Logf("%s GOMAXPROCS=%d: steady-state Encoder.Compress: %.0f allocs/op for %d points", kind, procs, allocs, len(pc))
			const bound = 1500
			if allocs > bound && !(raceDetector && procs > 1) {
				t.Errorf("%s GOMAXPROCS=%d: steady-state Encoder.Compress allocates %.0f times per frame, want <= %d", kind, procs, allocs, bound)
			}
		}
	}
}

// TestDecompressSteadyStateAllocs is the read side's bound. A warm
// Decompress allocates its result, the per-stream slices of the quadtree
// and the reference symbols, and little else; before the decoders wrote
// each point once into one result slice and kept their level, stream and
// polyline scratch in pools, a city frame cost 3.4k allocations and seven
// times the bytes it returned. Measured: 125 allocations at GOMAXPROCS 1,
// 160-215 at GOMAXPROCS 4, 1.2 and 1.5-2.1 times the returned bytes. The
// bounds leave room for a garbage collection emptying the pools between
// runs, not for a slice per polyline or per octree level.
func TestDecompressSteadyStateAllocs(t *testing.T) {
	pc, err := benchkit.Frame(lidar.City, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	back, err := dbgc.Decompress(data) // warm the pools
	if err != nil {
		t.Fatal(err)
	}
	returned := float64(len(back)) * float64(unsafe.Sizeof(back[0]))
	for _, procs := range []int{1, 4} {
		const runs = 10
		prev := runtime.GOMAXPROCS(procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := mallocsPerRun(runs, func() {
			if _, err := dbgc.Decompress(data); err != nil {
				t.Error(err)
			}
		})
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)
		// mallocsPerRun calls the function once more than it measures.
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("GOMAXPROCS=%d: steady-state Decompress: %.0f allocs/op, %.2f MB/op for %.2f MB of points", procs, allocs, perRun/1e6, returned/1e6)
		if raceDetector && procs > 1 {
			continue // several workers' scratches, a quarter of them dropped by the pools
		}
		const bound = 600
		if allocs > bound {
			t.Errorf("GOMAXPROCS=%d: steady-state Decompress allocates %.0f times per frame, want <= %d", procs, allocs, bound)
		}
		if perRun > 3*returned {
			t.Errorf("GOMAXPROCS=%d: steady-state Decompress allocates %.0f bytes per frame, want <= 3x the %.0f returned", procs, perRun, returned)
		}
	}
}

// TestRegionAllocs: a region decode writes its result once. A box that
// keeps the whole frame — the service's whole-frame query — decodes as
// Decompress does, every section and radial group into its window of the
// one buffer that is returned, where PR 16 still decoded the sparse and
// outlier points elsewhere and copied the survivors in beside the dense
// ones. The lane box keeps a tenth of the points: its sparse groups filter
// as they convert, inside windows sized from the groups its shell cull
// keeps, and the answer is a slice of its own size, not a corner of the
// frame's. Collections are held off while measuring, so the pools stay warm
// and the numbers are the steady state's. Measured, MB allocated per decode,
// before PR 16 -> PR 16 -> now (the whole frame returns 2.97 MB):
//
//	GOMAXPROCS  whole frame                                        lane box
//	1           12.14 -> 6.50 -> 3.35 (4.1x -> 2.2x -> 1.13x)      2.68 -> 2.13 -> 1.98 (the same every run)
//	4           12.9-13.5 -> 7.0-8.0 -> 3.9-4.3 (4.3x+ -> 1.45x)   3.1-3.6 -> 2.1-3.3 -> 2.0-2.3
//
// Past one worker each helper that finds the pools empty allocates a decode
// scratch of its own, a few hundred kilobytes that vary from run to run: so
// the one-worker leg holds both boxes to the issue's bounds (1.25 times the
// returned bytes; what the lane box cost before PR 16), the four-worker leg
// holds the whole frame to 1.75 times, and the lane box there, whose spread
// is wider than the change, is logged only.
func TestRegionAllocs(t *testing.T) {
	pc, err := benchkit.Frame(lidar.City, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dbgc.Compress(pc, dbgc.DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		box   dbgc.AABB
		procs int
		limit func(returned float64) float64 // nil: logged only
	}{
		{"whole frame", wholeBox, 1, func(returned float64) float64 { return 1.25 * returned }},
		{"lane box", laneBox, 1, func(float64) float64 { return 2.68e6 }},
		{"whole frame", wholeBox, 4, func(returned float64) float64 { return 1.75 * returned }},
		{"lane box", laneBox, 4, nil},
	} {
		var points int
		decode := func() {
			back, err := dbgc.DecompressRegion(data, c.box)
			if err != nil {
				t.Error(err)
			}
			points = len(back)
		}
		const runs = 10
		var before, after runtime.MemStats
		partest.At(c.procs, func() {
			decode() // warm the pools
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				decode()
			}
			runtime.ReadMemStats(&after)
		})
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		returned := float64(points) * float64(unsafe.Sizeof(dbgc.Point{}))
		t.Logf("%s GOMAXPROCS=%d: steady-state DecompressRegion: %.2f MB/op for %.2f MB of points", c.name, c.procs, perRun/1e6, returned/1e6)
		if points == 0 {
			t.Errorf("%s: no points", c.name)
		}
		if raceDetector || c.limit == nil {
			continue // under -race the pools drop a quarter of the scratches put back, megabytes each
		}
		if limit := c.limit(returned); perRun > limit {
			t.Errorf("%s GOMAXPROCS=%d: steady-state DecompressRegion allocates %.0f bytes for %d points, want <= %.0f", c.name, c.procs, perRun, points, limit)
		}
	}
}

// TestSplitMatchesApproximate: core.SplitPoints — what the benchmark times
// as cluster.split — and the split inside Compress are the same one, on the
// frames the benchmark's codec workloads run, through an Encoder that has
// compressed other frames and through a fresh one.
func TestSplitMatchesApproximate(t *testing.T) {
	opts := dbgc.DefaultOptions(0.02)
	reused := dbgc.NewEncoder(opts)
	for _, kind := range []lidar.SceneKind{lidar.Road, lidar.City} {
		for seed := int64(1); seed <= 8; seed++ {
			pc, err := benchkit.Frame(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			dense, sparse := core.SplitPoints(pc, opts)
			if len(dense)+len(sparse) != len(pc) || len(dense) == 0 {
				t.Fatalf("%s %d: SplitPoints returns %d dense and %d sparse of %d points", kind, seed, len(dense), len(sparse), len(pc))
			}
			for name, enc := range map[string]*dbgc.Encoder{"reused": reused, "fresh": dbgc.NewEncoder(opts)} {
				_, stats, err := dbgc.CompressWith(enc, pc)
				if err != nil {
					t.Fatal(err)
				}
				if stats.NumDense != len(dense) {
					t.Errorf("%s %d: %s Encoder splits off %d dense points, SplitPoints %d", kind, seed, name, stats.NumDense, len(dense))
				}
			}
		}
	}
}
