package core

import (
	"bytes"
	"testing"
	"time"

	"dbgc/internal/lidar"
	"dbgc/internal/octree"
	"dbgc/internal/varint"
)

// TestParallelIdenticalOutput: parallel compression must be byte-identical
// to serial — the decoder-replay design depends on deterministic streams.
func TestParallelIdenticalOutput(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := DefaultOptions(0.02)
	serial, sStats, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	parallel, pStats, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel output differs: %d vs %d bytes", len(parallel), len(serial))
	}
	if len(sStats.Mapping) != len(pStats.Mapping) {
		t.Fatal("mapping sizes differ")
	}
	for i := range sStats.Mapping {
		if sStats.Mapping[i] != pStats.Mapping[i] {
			t.Fatalf("mapping differs at %d", i)
		}
	}
}

// TestParallelDecodeIdentical: parallel decoding must reconstruct exactly
// the same points in exactly the same order as serial decoding, for every
// outlier mode and ablation.
func TestParallelDecodeIdentical(t *testing.T) {
	pc := frame(t, lidar.City)
	cases := []struct {
		name   string
		adjust func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"outlier-octree", func(o *Options) { o.OutlierMode = OutlierOctree }},
		{"outlier-none", func(o *Options) { o.OutlierMode = OutlierNone }},
		{"-radial", func(o *Options) { o.DisableRadialOpt = true }},
		{"-conversion", func(o *Options) { o.CartesianPolylines = true }},
		{"exact-clustering", func(o *Options) { o.ExactClustering = true }},
		{"one-group", func(o *Options) { o.Groups = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(0.02)
			tc.adjust(&opts)
			data, _, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Decompress(data)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := DecompressWith(data, DecompressOptions{Parallel: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("parallel decoded %d points, serial %d", len(parallel), len(serial))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("point %d differs: %v vs %v", i, parallel[i], serial[i])
				}
			}
		})
	}
}

// TestParallelDecodeCorrupt: corrupt sections must fail identically (same
// error class) whether or not decoding is parallel.
func TestParallelDecodeCorrupt(t *testing.T) {
	pc := frame(t, lidar.Road)
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		mangled := append([]byte(nil), data[:cut]...)
		_, serialErr := Decompress(mangled)
		_, parallelErr := DecompressWith(mangled, DecompressOptions{Parallel: true})
		if (serialErr == nil) != (parallelErr == nil) {
			t.Fatalf("cut %d: serial err %v, parallel err %v", cut, serialErr, parallelErr)
		}
	}
}

// TestRawOutlierCountOverflow: a header count chosen so 12*n wraps uint64
// must be rejected, not used as an allocation size.
func TestRawOutlierCountOverflow(t *testing.T) {
	// n = 2^62 + 1 makes 12*n ≡ 12 (mod 2^64), matching a 12-byte payload.
	n := uint64(1)<<62 + 1
	data := varint.AppendUint(nil, n)
	data = append(data, make([]byte, 12)...)
	if _, err := decodeOutliers(nil, data, OutlierNone, octree.DecodeOptions{}); err == nil {
		t.Fatal("wrapped outlier count accepted")
	}
	// Sanity: the bound still admits a correct stream.
	good := varint.AppendUint(nil, 1)
	good = append(good, make([]byte, 12)...)
	pts, err := decodeOutliers(nil, good, OutlierNone, octree.DecodeOptions{})
	if err != nil || len(pts) != 1 {
		t.Fatalf("valid raw outlier section rejected: %v", err)
	}
}

// TestParallelSpeed is informational: parallel mode should not be slower
// than serial by any meaningful margin on a multi-core machine.
func TestParallelSpeed(t *testing.T) {
	pc := frame(t, lidar.City)
	measure := func(parallel bool) time.Duration {
		opts := DefaultOptions(0.02)
		opts.Parallel = parallel
		best := time.Duration(1 << 62)
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			if _, _, err := Compress(pc, opts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(false)
	parallel := measure(true)
	t.Logf("serial %v, parallel %v (%.2fx)", serial.Round(time.Millisecond),
		parallel.Round(time.Millisecond), float64(serial)/float64(parallel))
	if parallel > serial*3/2 {
		t.Errorf("parallel mode much slower than serial: %v vs %v", parallel, serial)
	}
}
