package sparse

import (
	"math"
	"slices"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

func sparseFrame(t testing.TB) (geom.PointCloud, []int32, lidar.Meta) {
	t.Helper()
	scene, err := lidar.NewScene(lidar.City, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lidar.HDL64E()
	pc := cfg.Simulate(scene, 1)
	// Use the far half as "sparse" points — the pipeline's real input is
	// whatever clustering rejects.
	var idx []int32
	for i, p := range pc {
		if p.Norm() > 12 {
			idx = append(idx, int32(i))
		}
	}
	return pc, idx, cfg.Meta()
}

func defaultOpts(meta lidar.Meta) Options {
	return Options{
		Q:      0.02,
		Groups: 3,
		UTheta: meta.UTheta(),
		UPhi:   meta.UPhi(),
	}
}

// sortedCloud returns a copy of pc sorted by x, then y, then z: two decodes
// hold the same points when their sorted copies are equal.
func sortedCloud(pc geom.PointCloud) geom.PointCloud {
	pc = slices.Clone(pc)
	slices.SortFunc(pc, geom.Point.Compare)
	return pc
}

// verify checks the one-to-one mapping and the Theorem 3.2 error bound.
func verify(t *testing.T, pc geom.PointCloud, enc Encoded, dec geom.PointCloud, q float64) {
	t.Helper()
	if len(dec) != len(enc.DecodedOrder) {
		t.Fatalf("decoded %d points, order has %d", len(dec), len(enc.DecodedOrder))
	}
	bound := math.Sqrt(3) * q * 1.000001
	worst := 0.0
	for j, oi := range enc.DecodedOrder {
		d := pc[oi].Dist(dec[j])
		if d > worst {
			worst = d
		}
		if d > bound {
			t.Fatalf("point %d error %v exceeds sqrt(3)q = %v (orig %v dec %v)",
				oi, d, bound, pc[oi], dec[j])
		}
	}
	t.Logf("worst error %.5f m (bound %.5f)", worst, bound)
}

func TestRoundTripSpherical(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.DecodedOrder)+len(enc.OutlierIdx) != len(idx) {
		t.Fatalf("points lost: %d on lines + %d outliers != %d input",
			len(enc.DecodedOrder), len(enc.OutlierIdx), len(idx))
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, pc, enc, dec, opts.Q)
	ratio := float64(len(idx)*12) / float64(len(enc.Data))
	t.Logf("%d sparse points, %d lines, %d outliers, %d bytes (ratio %.1f)",
		len(idx), enc.NumLines, len(enc.OutlierIdx), len(enc.Data), ratio)
	if ratio < 5 {
		t.Errorf("sparse coordinate compression ratio %.2f unexpectedly low", ratio)
	}
}

func TestRoundTripTinyErrorBound(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	opts.Q = 0.0006 // 0.06 cm, the paper's tightest setting
	if len(idx) > 20000 {
		idx = idx[:20000]
	}
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, pc, enc, dec, opts.Q)
}

func TestRoundTripPlainDelta(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	opts.DisableRadialOpt = true
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	verify(t, pc, enc, dec, opts.Q)
}

func TestRadialOptHelps(t *testing.T) {
	// Figure 11: -Radial reaches only ~88% of DBGC's compression
	// performance; the optimized encoding must not be worse.
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	full, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableRadialOpt = true
	plain, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Data) > len(plain.Data) {
		t.Fatalf("radial optimization hurt: %d vs %d bytes", len(full.Data), len(plain.Data))
	}
	t.Logf("radial opt: %d bytes, plain delta: %d bytes (%.1f%% saved)",
		len(full.Data), len(plain.Data), 100*(1-float64(len(full.Data))/float64(len(plain.Data))))
}

func TestGroupingHelps(t *testing.T) {
	// Figure 11: -Group reaches only ~85% of DBGC's performance.
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	grouped, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Groups = 1
	single, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3 groups: %d bytes, 1 group: %d bytes", len(grouped.Data), len(single.Data))
	if float64(len(grouped.Data)) > 1.05*float64(len(single.Data)) {
		t.Fatalf("grouping hurt badly: %d vs %d bytes", len(grouped.Data), len(single.Data))
	}
}

func TestRoundTripCartesianMode(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	opts.CartesianMode = true
	if len(idx) > 15000 {
		idx = idx[:15000]
	}
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Cartesian mode quantizes each axis directly: per-dimension bound q.
	for j, oi := range enc.DecodedOrder {
		if d := pc[oi].ChebDist(dec[j]); d > opts.Q*1.000001 {
			t.Fatalf("point %d error %v exceeds %v", oi, d, opts.Q)
		}
	}
}

func TestConversionHelps(t *testing.T) {
	// Figure 11: -Conversion only reaches ~29% of DBGC's performance —
	// spherical organization must be much better than Cartesian.
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	sph, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CartesianMode = true
	cart, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Compare total cost including stranded outliers (12 bytes raw each)
	// so a mode cannot win by declaring everything an outlier.
	sphCost := len(sph.Data) + 12*len(sph.OutlierIdx)
	cartCost := len(cart.Data) + 12*len(cart.OutlierIdx)
	if sphCost >= cartCost {
		t.Fatalf("spherical (%d) should beat Cartesian (%d)", sphCost, cartCost)
	}
	t.Logf("spherical %d bytes (+%d outliers), cartesian %d bytes (+%d outliers)",
		len(sph.Data), len(sph.OutlierIdx), len(cart.Data), len(cart.OutlierIdx))
}

func TestEmptyInput(t *testing.T) {
	enc, err := Encode(nil, nil, Options{Q: 0.02, Groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded %d points from empty input", len(dec))
	}
}

func TestInvalidQ(t *testing.T) {
	if _, err := Encode(geom.PointCloud{{X: 1}}, []int32{0}, Options{Q: 0}); err == nil {
		t.Fatal("expected error for q=0")
	}
}

func TestFewPoints(t *testing.T) {
	pc := geom.PointCloud{{X: 5, Y: 0, Z: 1}, {X: 5.01, Y: 0.02, Z: 1}, {X: 5.02, Y: 0.04, Z: 1}}
	opts := Options{Q: 0.02, Groups: 3, UTheta: 0.004, UPhi: 0.007}
	enc, err := Encode(pc, []int32{0, 1, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec)+len(enc.OutlierIdx) != 3 {
		t.Fatalf("3 points in, %d decoded + %d outliers", len(dec), len(enc.OutlierIdx))
	}
}

func TestCorruptStreams(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	if len(idx) > 5000 {
		idx = idx[:5000]
	}
	enc, err := Encode(pc, idx, defaultOpts(meta))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc.Data); cut += 997 {
		if _, err := Decode(enc.Data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Bit flips must never panic.
	for i := 0; i < len(enc.Data); i += 509 {
		mut := append([]byte(nil), enc.Data...)
		mut[i] ^= 0x10
		_, _ = Decode(mut)
	}
}

func BenchmarkEncodeSparse(b *testing.B) {
	pc, idx, meta := sparseFrame(b)
	run := func(pc geom.PointCloud, idx []int32, opts Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(pc, idx, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("kitti-city", run(pc, idx, defaultOpts(meta)))
	// The road frame's sparse points as the codec sees them: what the
	// clustering of core.Compress leaves, under its six radial groups.
	for _, fs := range thetaFrames(b) {
		if fs.kind == lidar.Road {
			b.Run("kitti-road", run(fs.pc, fs.idx, fs.opts))
		}
	}
}

func BenchmarkDecodeSparse(b *testing.B) {
	pc, idx, meta := sparseFrame(b)
	enc, err := Encode(pc, idx, defaultOpts(meta))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc.Data); err != nil {
			b.Fatal(err)
		}
	}
}
