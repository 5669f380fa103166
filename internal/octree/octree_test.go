package octree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbgc/internal/geom"
)

func randomCloud(n int, spread float64, seed int64) geom.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	pc := make(geom.PointCloud, n)
	for i := range pc {
		pc[i] = geom.Point{
			X: rng.Float64()*spread - spread/2,
			Y: rng.Float64()*spread - spread/2,
			Z: rng.Float64() * spread / 4,
		}
	}
	return pc
}

// checkErrorBound verifies every original point has a decoded point within
// q per dimension via the DecodedOrder mapping.
func checkErrorBound(t *testing.T, orig, dec geom.PointCloud, order []int, q float64) {
	t.Helper()
	if len(orig) != len(dec) {
		t.Fatalf("decoded %d points, want %d", len(dec), len(orig))
	}
	if len(order) != len(orig) {
		t.Fatalf("order has %d entries, want %d", len(order), len(orig))
	}
	seen := make([]bool, len(orig))
	for j, oi := range order {
		if oi < 0 || oi >= len(orig) || seen[oi] {
			t.Fatalf("order is not a permutation at %d", j)
		}
		seen[oi] = true
		// Slack of 1e-9 absorbs float rounding in repeated cell halving.
		if d := orig[oi].ChebDist(dec[j]); d > q+1e-9 {
			t.Fatalf("point %d error %v exceeds bound %v", oi, d, q)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, q := range []float64{0.02, 0.005, 0.1} {
		pc := randomCloud(2000, 40, 1)
		enc, err := Encode(pc, q)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc.Data)
		if err != nil {
			t.Fatal(err)
		}
		checkErrorBound(t, pc, dec, enc.DecodedOrder, q)
	}
}

func TestEncodeEmpty(t *testing.T) {
	enc, err := Encode(nil, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded %d points from empty cloud", len(dec))
	}
}

func TestEncodeSinglePoint(t *testing.T) {
	pc := geom.PointCloud{{X: 3.7, Y: -1.2, Z: 0.4}}
	enc, err := Encode(pc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, dec, enc.DecodedOrder, 0.02)
}

func TestEncodeDuplicatePoints(t *testing.T) {
	p := geom.Point{X: 1, Y: 2, Z: 3}
	pc := geom.PointCloud{p, p, p, {X: 5, Y: 5, Z: 5}}
	enc, err := Encode(pc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatalf("duplicates must be preserved: got %d points", len(dec))
	}
	checkErrorBound(t, pc, dec, enc.DecodedOrder, 0.02)
}

func TestEncodeIdenticalCloud(t *testing.T) {
	p := geom.Point{X: -2, Y: 0.5, Z: 9}
	pc := geom.PointCloud{p, p, p}
	enc, err := Encode(pc, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, dec, enc.DecodedOrder, 0.01)
}

func TestInvalidErrorBound(t *testing.T) {
	if _, err := Encode(geom.PointCloud{{X: 1}}, 0); err == nil {
		t.Fatal("expected error for q=0")
	}
	if _, err := Encode(geom.PointCloud{{X: 1}}, -1); err == nil {
		t.Fatal("expected error for negative q")
	}
}

func TestDenseCompressesBetterThanSparse(t *testing.T) {
	// The paper's Fig. 3: octree compression degrades with sparsity. Same
	// point count, growing extent.
	const n = 5000
	q := 0.02
	ratio := func(spread float64) float64 {
		pc := randomCloud(n, spread, 9)
		enc, err := Encode(pc, q)
		if err != nil {
			t.Fatal(err)
		}
		return float64(pc.RawSize()) / float64(len(enc.Data))
	}
	dense := ratio(2)
	sparse := ratio(80)
	if dense <= sparse {
		t.Fatalf("dense ratio %.2f should exceed sparse ratio %.2f", dense, sparse)
	}
}

func TestGroupedRoundTrip(t *testing.T) {
	pc := randomCloud(3000, 30, 2)
	q := 0.02
	enc, err := EncodeGrouped(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeGrouped(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, dec, enc.DecodedOrder, q)
}

func TestGroupedEmpty(t *testing.T) {
	enc, err := EncodeGrouped(nil, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeGrouped(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("decoded %d points from empty cloud", len(dec))
	}
}

func TestGroupedMatchesPlainGeometry(t *testing.T) {
	// Plain and grouped coders must reconstruct the same multiset of
	// points (they build the identical tree).
	pc := randomCloud(1500, 25, 3)
	q := 0.02
	a, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeGrouped(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	da, err := Decode(a.Data)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeGrouped(b.Data)
	if err != nil {
		t.Fatal(err)
	}
	sortCloud(da)
	sortCloud(db)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("decoded multisets differ at %d: %v vs %v", i, da[i], db[i])
		}
	}
}

func sortCloud(pc geom.PointCloud) {
	sort.Slice(pc, func(i, j int) bool {
		if pc[i].X != pc[j].X {
			return pc[i].X < pc[j].X
		}
		if pc[i].Y != pc[j].Y {
			return pc[i].Y < pc[j].Y
		}
		return pc[i].Z < pc[j].Z
	})
}

func TestDecodeCorruptStreams(t *testing.T) {
	pc := randomCloud(500, 20, 4)
	enc, err := Encode(pc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error out, never panic.
	for cut := 0; cut < len(enc.Data); cut += 7 {
		if _, err := Decode(enc.Data[:cut]); err == nil {
			// Cut of the full data is the only valid case, and the
			// loop never reaches it.
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Bit flips in the header area must not panic (they may or may not
	// error: a flipped float still parses).
	for i := 0; i < len(enc.Data) && i < 64; i++ {
		mut := append([]byte(nil), enc.Data...)
		mut[i] ^= 0x40
		_, _ = Decode(mut)
	}
}

func TestDepthFor(t *testing.T) {
	if d := depthFor(8, 1); d != 2 {
		t.Fatalf("depthFor(8,1) = %d, want 2", d)
	}
	if d := depthFor(1, 1); d != 0 {
		t.Fatalf("depthFor(1,1) = %d, want 0", d)
	}
	if d := depthFor(0, 0.02); d != 0 {
		t.Fatalf("depthFor(0,.02) = %d, want 0", d)
	}
	if d := depthFor(math.MaxFloat64, 1e-9); d != maxDepth {
		t.Fatalf("depth must be capped at %d, got %d", maxDepth, d)
	}
}

// TestDepthLimit: the widest cloud core.Compress accepts, coordinates to
// ±q·2^48 and so a cube 2^48 leaves across, takes all maxDepth = 48 levels
// and comes back within q per axis; a header that declares a 49th level is
// corrupt. (Releases whose cap was 40 answer ErrCorrupt to the first stream,
// and wrote such a cloud with leaves 2^8 times too wide.)
func TestDepthLimit(t *testing.T) {
	for _, q := range []float64{0.001, 0.02, 0.1} {
		far := q * (1 << 48)
		pc := geom.PointCloud{{X: -far, Y: 1, Z: 2}, {X: far, Y: -far, Z: far}, {X: 0.5, Y: 0.25, Z: -0.75}, {X: 0.5 + 3*q, Y: 0.25, Z: -0.75}}
		enc, err := Encode(pc, q)
		if err != nil {
			t.Fatal(err)
		}
		const depthAt = 1 + 4*8 // after the point count and the cube's corner and side
		if got := enc.Data[depthAt]; got != maxDepth {
			t.Fatalf("q=%v: stream declares depth %d, want %d", q, got, maxDepth)
		}
		dec, err := Decode(enc.Data)
		if err != nil {
			t.Fatalf("q=%v: %v", q, err)
		}
		if len(dec) != len(pc) {
			t.Fatalf("q=%v: decoded %d points, want %d", q, len(dec), len(pc))
		}
		// float64 resolves q/2^5 at these magnitudes: leave the halvings an
		// ulp of the far coordinate.
		slack := math.Nextafter(far, math.Inf(1)) - far
		for j, oi := range enc.DecodedOrder {
			if d := pc[oi].ChebDist(dec[j]); d > q+slack {
				t.Errorf("q=%v: point %d comes back %v off, bound %v", q, oi, d, q)
			}
		}
		deeper := append([]byte(nil), enc.Data...)
		deeper[depthAt] = maxDepth + 1
		if _, err := Decode(deeper); !errors.Is(err, ErrCorrupt) {
			t.Errorf("q=%v: depth %d decoded with error %v, want ErrCorrupt", q, maxDepth+1, err)
		}
	}
}

func BenchmarkEncode100k(b *testing.B) {
	pc := randomCloud(100000, 100, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(pc, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode100k(b *testing.B) {
	pc := randomCloud(100000, 100, 6)
	enc, err := Encode(pc, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc.Data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGroupedCorruptStreams(t *testing.T) {
	pc := randomCloud(400, 25, 11)
	enc, err := EncodeGrouped(pc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc.Data); cut += 7 {
		if _, err := DecodeGrouped(enc.Data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for i := 0; i < len(enc.Data); i += 97 {
		mut := append([]byte(nil), enc.Data...)
		mut[i] ^= 0x40
		_, _ = DecodeGrouped(mut) // must not panic
	}
}

func TestGroupedInvalidBound(t *testing.T) {
	if _, err := EncodeGrouped(geom.PointCloud{{X: 1}}, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
}

func TestDecodeRegionMatchesFilter(t *testing.T) {
	pc := randomCloud(3000, 50, 12)
	enc, err := Encode(pc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.AABB{Min: geom.Point{X: -10, Y: -10, Z: 0}, Max: geom.Point{X: 10, Y: 10, Z: 10}}
	got, err := DecodeRegion(enc.Data, region)
	if err != nil {
		t.Fatal(err)
	}
	var want geom.PointCloud
	for _, p := range full {
		if region.Contains(p) {
			want = append(want, p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("region decode %d points, filter gives %d", len(got), len(want))
	}
	sortCloud(got)
	sortCloud(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Region decode must also reject truncated streams.
	for cut := 0; cut < len(enc.Data); cut += 31 {
		if _, err := DecodeRegion(enc.Data[:cut], region); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}
