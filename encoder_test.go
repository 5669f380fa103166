package dbgc_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"dbgc"
	"dbgc/internal/benchkit"
	"dbgc/internal/lidar"
)

// TestEncoderMatchesCompress: for every outlier mode, serial and parallel,
// the reusable Encoder must be byte-identical and Mapping-identical to the
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
		for _, parallel := range []bool{false, true} {
			name := m.name + "/serial"
			if parallel {
				name = m.name + "/parallel"
			}
			t.Run(name, func(t *testing.T) {
				opts := dbgc.DefaultOptions(0.02)
				opts.OutlierMode = m.mode
				opts.Parallel = parallel

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

// TestSerialParallelDecodeEquivalence: whichever options produced the
// stream, serial and parallel encodes must decode to the same points.
func TestSerialParallelDecodeEquivalence(t *testing.T) {
	pc, err := benchkit.Frame(lidar.Campus, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := dbgc.DefaultOptions(0.02)
	serialData, _, err := dbgc.Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	parallelData, _, err := dbgc.Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialData, parallelData) {
		t.Fatalf("parallel encode differs: %d vs %d bytes", len(parallelData), len(serialData))
	}
	a, err := dbgc.Decompress(serialData)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dbgc.Decompress(parallelData)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("decoded sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decoded point %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEncoderSteadyStateAllocs bounds the per-frame allocation count of a
// warm Encoder, on the dense-heavy and on the sparse-heavy frame. What is
// left is the returned buffers, one slice per radial group for its lines'
// points, its payload and its index lists, a few slices per quadtree and
// octree, and slice growth — about 250 measured on either frame. The bound
// leaves room for the pools being emptied between runs (by a garbage
// collection, or by the race detector, under which sync.Pool drops a
// quarter of what is put back: ~900 measured), not for a slice per polyline
// (~4k on the road frame) or four per quadtree node per level (~11k),
// which is where the count stood before.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	for _, kind := range []lidar.SceneKind{lidar.City, lidar.Road} {
		pc, err := benchkit.Frame(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc := dbgc.NewEncoder(dbgc.DefaultOptions(0.02))
		if _, _, err := dbgc.CompressWith(enc, pc); err != nil { // warm the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, _, err := dbgc.CompressWith(enc, pc); err != nil {
				t.Error(err)
			}
		})
		t.Logf("%s: steady-state Encoder.Compress: %.0f allocs/op for %d points", kind, allocs, len(pc))
		const bound = 1500
		if allocs > bound {
			t.Errorf("%s: steady-state Encoder.Compress allocates %.0f times per frame, want <= %d", kind, allocs, bound)
		}
	}
}

// TestDecompressSteadyStateAllocs is the read side's bound. A warm
// Decompress allocates its result, the per-stream slices of the quadtree
// and the reference symbols, and little else; before the decoders wrote
// each point once into one result slice and kept their level, stream and
// polyline scratch in pools, a city frame cost 3.4k allocations and seven
// times the bytes it returned. The bounds leave room for a garbage
// collection emptying the pools between runs, not for a slice per polyline
// or per octree level.
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
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := dbgc.Decompress(data); err != nil {
			t.Error(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more than it measures.
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	returned := float64(len(back)) * float64(unsafe.Sizeof(back[0]))
	t.Logf("steady-state Decompress: %.0f allocs/op, %.2f MB/op for %.2f MB of points", allocs, perRun/1e6, returned/1e6)
	const bound = 600
	if allocs > bound {
		t.Errorf("steady-state Decompress allocates %.0f times per frame, want <= %d", allocs, bound)
	}
	if perRun > 3*returned {
		t.Errorf("steady-state Decompress allocates %.0f bytes per frame, want <= 3x the %.0f returned", perRun, returned)
	}
}
