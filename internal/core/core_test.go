package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
)

var (
	framesMu sync.Mutex
	frames   = map[lidar.SceneKind]geom.PointCloud{}
	defaults = map[lidar.SceneKind]compressed{}
)

// compressed is one frame as Compress returned it.
type compressed struct {
	data  []byte
	stats Stats
}

// paperOptions is DefaultOptions with the paper's §3.5 coders (ContextModel
// off): the v2 container the dialect tests build theirs from and compare
// them with.
func paperOptions(q float64) Options {
	opts := DefaultOptions(q)
	opts.ContextModel = false
	return opts
}

func frame(t testing.TB, kind lidar.SceneKind) geom.PointCloud {
	t.Helper()
	framesMu.Lock()
	defer framesMu.Unlock()
	if pc, ok := frames[kind]; ok {
		return pc
	}
	scene, err := lidar.NewScene(kind, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := lidar.HDL64E().Simulate(scene, 1)
	frames[kind] = pc
	return pc
}

// defaultFrame is frame(t, kind) compressed under DefaultOptions(0.02),
// memoised like frame: the tests that only read that frame share one
// compression. Each call returns its own copy of the bytes and the stats,
// since some callers damage the frame they are given.
func defaultFrame(t testing.TB, kind lidar.SceneKind) ([]byte, *Stats) {
	t.Helper()
	pc := frame(t, kind)
	framesMu.Lock()
	defer framesMu.Unlock()
	c, ok := defaults[kind]
	if !ok {
		data, stats, err := Compress(pc, DefaultOptions(0.02))
		if err != nil {
			t.Fatal(err)
		}
		c = compressed{data, *stats}
		defaults[kind] = c
	}
	stats := c.stats
	stats.Mapping = slices.Clone(c.stats.Mapping)
	return bytes.Clone(c.data), &stats
}

// verifyRoundTrip checks the one-to-one mapping and the error bound for a
// compressed frame: per-dimension q for octree/outlier points would be
// ideal, but the spherical path guarantees √3·q Euclidean (Theorem 3.2), so
// that is the uniform bound asserted here.
func verifyRoundTrip(t *testing.T, pc geom.PointCloud, data []byte, stats *Stats, q float64) {
	t.Helper()
	dec, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(pc) {
		t.Fatalf("one-to-one mapping violated: %d in, %d out", len(pc), len(dec))
	}
	if len(stats.Mapping) != len(pc) {
		t.Fatalf("mapping has %d entries, want %d", len(stats.Mapping), len(pc))
	}
	seen := make([]bool, len(pc))
	bound := math.Sqrt(3) * q * 1.000001
	worst := 0.0
	for j, oi := range stats.Mapping {
		if oi < 0 || int(oi) >= len(pc) || seen[oi] {
			t.Fatalf("mapping is not a permutation at %d", j)
		}
		seen[oi] = true
		d := pc[oi].Dist(dec[j])
		if d > worst {
			worst = d
		}
		if d > bound {
			t.Fatalf("point %d error %v exceeds %v", oi, d, bound)
		}
	}
	t.Logf("ratio %.2f, worst error %.5f m (bound %.5f), dense %d / sparse %d / outliers %d",
		stats.CompressionRatio(), worst, bound, stats.NumDense, stats.NumSparse, stats.NumOutliers)
}

func TestCompressDecompressAllScenes(t *testing.T) {
	for _, kind := range lidar.AllScenes {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			data, stats := defaultFrame(t, kind)
			verifyRoundTrip(t, frame(t, kind), data, stats, 0.02)
			if r := stats.CompressionRatio(); r < 8 {
				t.Errorf("%s: compression ratio %.2f below expectation", kind, r)
			}
		})
	}
}

func TestErrorBounds(t *testing.T) {
	pc := frame(t, lidar.City)
	for _, q := range []float64{0.0006, 0.005} {
		opts := DefaultOptions(q)
		data, stats, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		verifyRoundTrip(t, pc, data, stats, q)
	}
	data, stats := defaultFrame(t, lidar.City)
	verifyRoundTrip(t, pc, data, stats, 0.02)
}

func TestRatioImprovesWithLooserBound(t *testing.T) {
	pc := frame(t, lidar.City)
	_, def := defaultFrame(t, lidar.City)
	var prev float64
	for _, q := range []float64{0.0006, 0.0025, 0.01, 0.02} {
		stats := def
		if q != 0.02 {
			var err error
			if _, stats, err = Compress(pc, DefaultOptions(q)); err != nil {
				t.Fatal(err)
			}
		}
		r := stats.CompressionRatio()
		if r <= prev {
			t.Fatalf("ratio %.2f at q=%v not above %.2f at looser bound", r, q, prev)
		}
		prev = r
	}
}

func TestAblationsRoundTrip(t *testing.T) {
	pc := frame(t, lidar.Campus)
	cases := map[string]func(*Options){
		"exact-clustering": func(o *Options) { o.ExactClustering = true },
		"-radial":          func(o *Options) { o.DisableRadialOpt = true },
		"-group":           func(o *Options) { o.Groups = 1 },
		"-conversion":      func(o *Options) { o.CartesianPolylines = true },
		"outlier-octree":   func(o *Options) { o.OutlierMode = OutlierOctree },
		"outlier-none":     func(o *Options) { o.OutlierMode = OutlierNone },
	}
	for name, mod := range cases {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions(0.02)
			mod(&opts)
			data, stats, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			verifyRoundTrip(t, pc, data, stats, opts.Q)
		})
	}
}

func TestClusteringBeatsExtremes(t *testing.T) {
	// Figure 10: the clustering split should beat both all-octree and
	// all-coordinate-compression.
	pc := frame(t, lidar.City)
	ratio := func(opts Options) float64 {
		_, stats, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return stats.CompressionRatio()
	}
	_, def := defaultFrame(t, lidar.City)
	clustered := def.CompressionRatio()
	allOctree := func() Options { o := DefaultOptions(0.02); o.ForceOctreeFraction = 1; return o }()
	allSparse := func() Options { o := DefaultOptions(0.02); o.ForceOctreeFraction = 0; return o }()
	rOct := ratio(allOctree)
	rSpa := ratio(allSparse)
	t.Logf("clustered %.2f, all-octree %.2f, all-sparse %.2f", clustered, rOct, rSpa)
	if clustered < rOct && clustered < rSpa {
		t.Fatalf("clustered split (%.2f) worse than both extremes (%.2f, %.2f)", clustered, rOct, rSpa)
	}
}

func TestForceFractionRoundTrip(t *testing.T) {
	pc := frame(t, lidar.City)
	for _, f := range []float64{0, 0.3, 0.7, 1} {
		opts := DefaultOptions(0.02)
		opts.ForceOctreeFraction = f
		data, stats, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		verifyRoundTrip(t, pc, data, stats, opts.Q)
	}
}

func TestEmptyCloud(t *testing.T) {
	data, stats, err := Compress(nil, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumPoints != 0 {
		t.Fatalf("stats for empty cloud: %+v", stats)
	}
	dec, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded %d points from empty cloud", len(dec))
	}
}

func TestTinyCloud(t *testing.T) {
	pc := geom.PointCloud{{X: 5, Y: 1, Z: -1}, {X: 6, Y: 2, Z: -1}, {X: 7, Y: 2.5, Z: -1}}
	data, stats, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	verifyRoundTrip(t, pc, data, stats, 0.02)
}

func TestInvalidOptions(t *testing.T) {
	if _, _, err := Compress(geom.PointCloud{{X: 1}}, Options{Q: 0}); err == nil {
		t.Fatal("expected error for q=0")
	}
	opts := DefaultOptions(0.02)
	opts.OutlierMode = OutlierMode(99)
	if _, _, err := Compress(geom.PointCloud{{X: 1}}, opts); err == nil {
		t.Fatal("expected error for bad outlier mode")
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress(nil); err == nil {
		t.Fatal("nil stream must fail")
	}
	if _, err := Decompress([]byte("not a dbgc stream")); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := Decompress([]byte("DBGC\x09")); err == nil {
		t.Fatal("bad version must fail")
	}
}

func TestDecompressTruncations(t *testing.T) {
	pc := frame(t, lidar.Road)[:20000]
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 1009 {
		if _, err := Decompress(data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := 5; i < len(data); i += 769 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x20
		_, _ = Decompress(mut) // must not panic
	}
}

func TestRejectsNonFinitePoints(t *testing.T) {
	for _, bad := range []geom.Point{
		{X: math.NaN()},
		{Y: math.Inf(1)},
		{Z: math.Inf(-1)},
	} {
		pc := geom.PointCloud{{X: 1, Y: 1, Z: 1}, bad}
		if _, _, err := Compress(pc, DefaultOptions(0.02)); err == nil {
			t.Errorf("non-finite point %v accepted", bad)
		}
	}
}

// TestStraysBeyondClusterKeyRange: a finite stray return that stretches the
// clustering grid past its 21 bits per axis (2^21 cells of 2q are 84 km at
// q = 2 cm) makes cell keys alias. The split is then arbitrary, but every
// split is a valid one: the frame must still round-trip within the bound,
// under both classifiers.
func TestStraysBeyondClusterKeyRange(t *testing.T) {
	city := frame(t, lidar.City)
	const cells = 1 << 21
	for _, stray := range []geom.Point{
		{X: 1.5 * cells * 0.04},
		{Y: -2.5 * cells * 0.04},
		{Z: -1e9},
		{Z: -(cells - 3) * 0.04}, // ground cells wrap to z fields under the window radius
	} {
		pc := append(append(geom.PointCloud(nil), city...), stray)
		for _, exact := range []bool{false, true} {
			opts := DefaultOptions(0.02)
			opts.ExactClustering = exact
			data, stats, err := Compress(pc, opts)
			if err != nil {
				t.Fatalf("stray %v exact=%v: %v", stray, exact, err)
			}
			verifyRoundTrip(t, pc, data, stats, 0.02)
		}
	}
}

// TestRejectsOverflowingNorm: a finite coordinate whose squared norm
// overflows used to compress without error into a frame Decompress
// rejected ("invalid rMax +Inf"). The pre-scan refuses it, at one worker
// and at four, and a stray that does not overflow still round-trips.
func TestRejectsOverflowingNorm(t *testing.T) {
	city := frame(t, lidar.City)
	for _, procs := range []int{1, 4} {
		partest.At(procs, func() {
			opts := DefaultOptions(0.02)
			for _, bad := range []geom.Point{{X: 1e300}, {Y: -1e200}, {X: 1e154, Z: 1e154}} {
				pc := append(append(geom.PointCloud(nil), city...), bad)
				_, _, err := Compress(pc, opts)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("point %d ", len(city))) {
					t.Errorf("GOMAXPROCS=%d: point %v: got error %v, want one naming point %d", procs, bad, err, len(city))
				}
			}
			pc := append(append(geom.PointCloud(nil), city...), geom.Point{X: 1e9})
			data, stats, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			verifyRoundTrip(t, pc, data, stats, 0.02)
		})
	}
}

// TestCoordinateLimit: Compress holds the error bound for every point of a
// frame whose coordinates reach q·2^48 in magnitude, and refuses a frame
// with a coordinate beyond that, naming the point. Two powers of two past
// the limit the far point and hundreds of ordinary points with it used to
// come back outside √3·q with no error from either side, and so did a far
// point at the limit that landed in the octree while that stopped at 40
// levels. The frames at the limit are decoded and checked at GOMAXPROCS 1;
// at 4 their bytes and Stats.Mapping must equal those, and equal bytes
// decode equally. The refusals run at both widths.
func TestCoordinateLimit(t *testing.T) {
	city := frame(t, lidar.City)
	for _, q := range []float64{0.001, 0.02, 0.1} {
		limit := q * (1 << 48)
		opts := DefaultOptions(q)
		// Where clustering puts the stray is an accident of how a frame this
		// wide aliases cells, so it also goes through the octree with every
		// other point.
		allDense := opts
		allDense.ForceOctreeFraction = 1
		type coded struct {
			data    []byte
			mapping []int32
		}
		var want []coded
		for _, procs := range []int{1, 4} {
			partest.At(procs, func() {
				k := 0
				for _, stray := range []geom.Point{{X: limit}, {Z: -limit}, {X: -limit, Y: limit / 2, Z: limit / 4}} {
					pc := append(append(geom.PointCloud(nil), city...), stray)
					for _, o := range []Options{opts, allDense} {
						data, stats, err := Compress(pc, o)
						if err != nil {
							t.Fatalf("q=%v GOMAXPROCS=%d stray %v at the limit: %v", q, procs, stray, err)
						}
						if procs == 1 {
							verifyRoundTrip(t, pc, data, stats, q)
							want = append(want, coded{data, stats.Mapping})
						} else if !bytes.Equal(data, want[k].data) || !slices.Equal(stats.Mapping, want[k].mapping) {
							t.Errorf("q=%v stray %v: GOMAXPROCS=%d writes other bytes or another mapping than GOMAXPROCS=1", q, stray, procs)
						}
						k++
					}
				}
				beyond := math.Nextafter(limit, math.Inf(1))
				for _, stray := range []geom.Point{{Y: beyond}, {X: 1, Y: 2, Z: -beyond}} {
					pc := append(append(geom.PointCloud(nil), city...), stray)
					_, _, err := Compress(pc, opts)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("point %d ", len(city))) {
						t.Errorf("q=%v GOMAXPROCS=%d stray %v beyond the limit: got error %v, want one naming point %d", q, procs, stray, err, len(city))
					}
				}
			})
		}
	}
}
