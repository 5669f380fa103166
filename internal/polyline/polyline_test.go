package polyline

import (
	"math/rand"
	"testing"

	"dbgc/internal/geom"
)

// cart is a simple quantized→Cartesian mapping for tests: treat (θ, φ, r)
// as scaled spherical coordinates.
func cart(scaleT, scaleP, scaleR float64) func(Point) geom.Point {
	return func(p Point) geom.Point {
		return geom.ToCartesian(geom.Spherical{
			Theta: float64(p.Theta) * scaleT,
			Phi:   float64(p.Phi) * scaleP,
			R:     float64(p.R) * scaleR,
		})
	}
}

// scanRow builds a horizontal scan row: n points at polar angle phi with
// consecutive azimuth steps and a smooth radius drift. (A sawtooth radius
// would make the greedy nearest-candidate extension skip points — real
// scan rows on a surface vary smoothly.)
func scanRow(phi int64, thetaStart, n int, r int64, step int64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Theta: int64(thetaStart) + int64(i)*step,
			Phi:   phi,
			R:     r + int64(i),
			Orig:  int32(i),
		}
	}
	return pts
}

func defaultCfg() Config {
	// u_θ = 10 quantized units, u_φ = 8.
	return Config{UTheta: 10, UPhi: 8, Cartesian: cart(1e-4, 1e-4, 0.01)}
}

func TestOrganizeSingleRow(t *testing.T) {
	pts := scanRow(1000, 0, 50, 3000, 10)
	lines, outliers := Organize(pts, defaultCfg())
	if len(outliers) != 0 {
		t.Fatalf("%d unexpected outliers", len(outliers))
	}
	if len(lines) != 1 {
		t.Fatalf("expected 1 polyline, got %d", len(lines))
	}
	if len(lines[0]) != 50 {
		t.Fatalf("polyline has %d points, want 50", len(lines[0]))
	}
	for i := 1; i < len(lines[0]); i++ {
		if lines[0][i].Theta <= lines[0][i-1].Theta {
			t.Fatalf("polyline not ascending in θ at %d", i)
		}
	}
}

func TestOrganizeRowWithGap(t *testing.T) {
	// A gap of 5 azimuth steps (> 2u_θ) must split the row.
	pts := append(scanRow(1000, 0, 20, 3000, 10), scanRow(1000, 20*10+50, 20, 3000, 10)...)
	lines, outliers := Organize(pts, defaultCfg())
	if len(lines) != 2 {
		t.Fatalf("expected 2 polylines, got %d (+%d outliers)", len(lines), len(outliers))
	}
}

func TestOrganizeTwoRows(t *testing.T) {
	// Two scan rows separated by 3u_φ must form separate polylines.
	pts := append(scanRow(1000, 0, 30, 3000, 10), scanRow(1024, 0, 30, 3200, 10)...)
	lines, outliers := Organize(pts, defaultCfg())
	if len(lines) != 2 || len(outliers) != 0 {
		t.Fatalf("expected 2 polylines, got %d (+%d outliers)", len(lines), len(outliers))
	}
	// Sorted by polar angle.
	if lines[0].PolarAngle() > lines[1].PolarAngle() {
		t.Fatal("lines not sorted by polar angle")
	}
}

func TestOrganizeIsolatedOutlier(t *testing.T) {
	pts := scanRow(1000, 0, 30, 3000, 10)
	pts = append(pts, Point{Theta: 5000, Phi: 5000, R: 9000})
	lines, outliers := Organize(pts, defaultCfg())
	if len(lines) != 1 || len(outliers) != 1 {
		t.Fatalf("expected 1 line + 1 outlier, got %d + %d", len(lines), len(outliers))
	}
	if outliers[0].Phi != 5000 {
		t.Fatalf("wrong outlier: %+v", outliers[0])
	}
}

func TestOrganizeEmpty(t *testing.T) {
	lines, outliers := Organize(nil, defaultCfg())
	if lines != nil || outliers != nil {
		t.Fatal("empty input must yield empty output")
	}
}

func TestOrganizeCoversAllPoints(t *testing.T) {
	// Every input point lands in exactly one polyline or the outlier set.
	rng := rand.New(rand.NewSource(3))
	var pts []Point
	for row := 0; row < 10; row++ {
		phi := int64(1000 + row*9)
		theta := int64(0)
		r := int64(2000 + rng.Intn(2000))
		for theta < 3000 {
			theta += int64(5 + rng.Intn(15))
			if rng.Float64() < 0.1 {
				theta += 40 // occasional gap
			}
			pts = append(pts, Point{Theta: theta, Phi: phi + int64(rng.Intn(3)-1), R: r + int64(rng.Intn(30)), Orig: int32(len(pts))})
		}
	}
	lines, outliers := Organize(pts, defaultCfg())
	seen := make(map[int32]int)
	total := 0
	for _, l := range lines {
		for _, p := range l {
			seen[p.Orig]++
			total++
		}
	}
	for _, p := range outliers {
		seen[p.Orig]++
		total++
	}
	if total != len(pts) {
		t.Fatalf("organized %d points, want %d", total, len(pts))
	}
	for o, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears %d times", o, c)
		}
	}
	// Most points should be on polylines for scan-structured input.
	if len(outliers) > len(pts)/10 {
		t.Fatalf("too many outliers: %d/%d", len(outliers), len(pts))
	}
}

func TestRefWindow(t *testing.T) {
	lines := []Line{
		{{Phi: 100}},
		{{Phi: 110}},
		{{Phi: 112}},
		{{Phi: 150}},
	}
	if lo := RefWindow(lines, 2, 5); lo != 1 {
		t.Fatalf("RefWindow = %d, want 1", lo)
	}
	if lo := RefWindow(lines, 3, 5); lo != 3 {
		t.Fatalf("RefWindow for isolated line = %d, want 3", lo)
	}
	if lo := RefWindow(lines, 0, 5); lo != 0 {
		t.Fatalf("RefWindow for first line = %d, want 0", lo)
	}
}

func TestConsensusMerge(t *testing.T) {
	lines := []Line{
		{{Theta: 0, Phi: 100, R: 10}, {Theta: 10, Phi: 100, R: 11}, {Theta: 20, Phi: 100, R: 12}, {Theta: 30, Phi: 100, R: 13}},
		{{Theta: 8, Phi: 102, R: 20}, {Theta: 18, Phi: 102, R: 21}},
		{{Theta: 5, Phi: 104, R: 30}},
	}
	cons := slidingConsensus(t, lines, 2, 10)
	// Line 1 replaces the consensus span θ∈[8,18] of line 0:
	// expect θ = 0, 8, 18, 20, 30 with rs 10, 20, 21, 12, 13.
	wantT := []int64{0, 8, 18, 20, 30}
	wantR := []int64{10, 20, 21, 12, 13}
	if len(cons) != len(wantT) {
		t.Fatalf("consensus has %d points, want %d: %+v", len(cons), len(wantT), cons)
	}
	for i := range wantT {
		if cons[i].Theta != wantT[i] || cons[i].R != wantR[i] {
			t.Fatalf("consensus[%d] = %+v, want θ=%d r=%d", i, cons[i], wantT[i], wantR[i])
		}
	}
}

func TestConsensusEmptyWindow(t *testing.T) {
	lines := []Line{{{Theta: 0, Phi: 0}}, {{Theta: 0, Phi: 1000}}}
	if cons := slidingConsensus(t, lines, 1, 5); len(cons) != 0 {
		t.Fatalf("expected empty consensus, got %+v", cons)
	}
	if cons := slidingConsensus(t, lines, 0, 5); len(cons) != 0 {
		t.Fatalf("first line must have empty consensus, got %+v", cons)
	}
}

func TestSearchHelpers(t *testing.T) {
	l := Line{{Theta: 10}, {Theta: 20}, {Theta: 30}}
	if p, ok := SearchLeft(l, 25); !ok || p.Theta != 20 {
		t.Fatalf("SearchLeft(25) = %+v %v", p, ok)
	}
	if _, ok := SearchLeft(l, 10); ok {
		t.Fatal("SearchLeft(10) should fail (strictly less)")
	}
	if p, ok := SearchRight(l, 25); !ok || p.Theta != 30 {
		t.Fatalf("SearchRight(25) = %+v %v", p, ok)
	}
	if _, ok := SearchRight(l, 30); ok {
		t.Fatal("SearchRight(30) should fail (strictly greater)")
	}
	if p, ok := SearchAt(l, 20); !ok || p.Theta != 20 {
		t.Fatalf("SearchAt(20) = %+v %v", p, ok)
	}
	if _, ok := SearchAt(l, 25); ok {
		t.Fatal("SearchAt(25) should fail")
	}
}
