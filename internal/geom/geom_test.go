package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSphericalRoundTrip(t *testing.T) {
	pts := []Point{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {-1, -2, 3},
		{10, -10, 0.5}, {0.001, 0.001, -0.001}, {100, 0, -5},
	}
	for _, p := range pts {
		s := ToSpherical(p)
		q := ToCartesian(s)
		if p.Dist(q) > 1e-9*math.Max(1, p.Norm()) {
			t.Errorf("round trip %v -> %v -> %v", p, s, q)
		}
	}
}

func TestSphericalRoundTripQuick(t *testing.T) {
	f := func(x, y, z float64) bool {
		// Constrain to a realistic LiDAR range to avoid pathological
		// float magnitudes from quick's generator.
		p := Point{math.Mod(x, 200), math.Mod(y, 200), math.Mod(z, 50)}
		s := ToSpherical(p)
		q := ToCartesian(s)
		return p.Dist(q) <= 1e-8*(1+p.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSphericalOrigin(t *testing.T) {
	s := ToSpherical(Point{})
	if s != (Spherical{}) {
		t.Fatalf("origin should map to zero spherical, got %+v", s)
	}
	if p := ToCartesian(Spherical{}); p.Norm() != 0 {
		t.Fatalf("zero spherical should map to origin, got %v", p)
	}
}

func TestThetaRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := Point{rng.NormFloat64() * 30, rng.NormFloat64() * 30, rng.NormFloat64() * 5}
		s := ToSpherical(p)
		if s.Theta < 0 || s.Theta >= 2*math.Pi {
			t.Fatalf("theta out of [0,2pi): %v for %v", s.Theta, p)
		}
		if s.Phi < 0 || s.Phi > math.Pi {
			t.Fatalf("phi out of [0,pi]: %v for %v", s.Phi, p)
		}
		if s.R < 0 {
			t.Fatalf("negative radius %v", s.R)
		}
	}
}

func TestBounds(t *testing.T) {
	pc := PointCloud{{1, 2, 3}, {-1, 5, 0}, {4, -2, 2}}
	b := Bounds(pc)
	want := AABB{Min: Point{-1, -2, 0}, Max: Point{4, 5, 3}}
	if b != want {
		t.Fatalf("bounds = %+v, want %+v", b, want)
	}
	for _, p := range pc {
		if !b.Contains(p) {
			t.Errorf("bounds should contain %v", p)
		}
	}
	if got := b.MaxDim(); got != 7 {
		t.Fatalf("MaxDim = %v, want 7", got)
	}
	c := b.Cube()
	if c.Size() != (Point{7, 7, 7}) {
		t.Fatalf("cube size = %v, want (7,7,7)", c.Size())
	}
}

func TestBoundsEmpty(t *testing.T) {
	if b := Bounds(nil); b != (AABB{}) {
		t.Fatalf("empty bounds should be zero, got %+v", b)
	}
}

func TestChebDist(t *testing.T) {
	p := Point{0, 0, 0}
	q := Point{0.5, -2, 1}
	if got := p.ChebDist(q); got != 2 {
		t.Fatalf("ChebDist = %v, want 2", got)
	}
}

func TestCompareClouds(t *testing.T) {
	a := PointCloud{{0, 0, 0}, {1, 1, 1}}
	b := PointCloud{{0.01, 0, 0}, {1, 1.02, 1}}
	rep, err := CompareClouds(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxPerDim-0.02) > 1e-12 {
		t.Fatalf("MaxPerDim = %v, want 0.02", rep.MaxPerDim)
	}
	if rep.N != 2 {
		t.Fatalf("N = %d, want 2", rep.N)
	}
	if !rep.WithinBound(0.02) {
		t.Fatalf("errors should satisfy q=0.02: %+v", rep)
	}
	if rep.WithinBound(0.001) {
		t.Fatalf("errors should violate q=0.001: %+v", rep)
	}
}

func TestCompareCloudsSizeMismatch(t *testing.T) {
	if _, err := CompareClouds(PointCloud{{}}, PointCloud{}); err == nil {
		t.Fatal("expected error on size mismatch")
	}
}

func TestRawSize(t *testing.T) {
	pc := make(PointCloud, 100)
	if got := pc.RawSize(); got != 1200 {
		t.Fatalf("RawSize = %d, want 1200 (12 bytes/point)", got)
	}
}

func TestCentroid(t *testing.T) {
	pc := PointCloud{{0, 0, 0}, {2, 4, 6}}
	if c := pc.Centroid(); c != (Point{1, 2, 3}) {
		t.Fatalf("centroid = %v", c)
	}
	if c := (PointCloud{}).Centroid(); c != (Point{}) {
		t.Fatalf("empty centroid = %v", c)
	}
}

func TestClone(t *testing.T) {
	pc := PointCloud{{1, 2, 3}}
	cl := pc.Clone()
	cl[0].X = 9
	if pc[0].X != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

// fill appends n points, numbered from first, to w: a decoder's part.
func fill(w PointCloud, first, n int) PointCloud {
	for i := 0; i < n; i++ {
		w = append(w, Point{X: float64(first + i)})
	}
	return w
}

// TestWindowJoin: parts appended into consecutive windows are closed up in
// place — moving nothing when each filled its window exactly, moving the
// later ones down when one fell short or is missing; a part that outgrew
// its window makes Join copy — with the same points either way.
func TestWindowJoin(t *testing.T) {
	check := func(name string, got PointCloud, want int, inPlace bool, buf PointCloud) {
		t.Helper()
		if len(got) != want {
			t.Fatalf("%s: %d points, want %d", name, len(got), want)
		}
		for i, p := range got {
			if p.X != float64(i) {
				t.Fatalf("%s: point %d is %v", name, i, p.X)
			}
		}
		if same := want > 0 && cap(buf) > 0 && &got[0] == &buf[:1][0]; same != inPlace {
			t.Fatalf("%s: in place = %v, want %v", name, same, inPlace)
		}
	}
	// windows carves buf at offs and fills window i with lens[i] points,
	// numbered on from the window before.
	windows := func(buf PointCloud, offs []uint64, lens ...int) []PointCloud {
		parts, first := make([]PointCloud, len(lens)), len(buf)
		for i, n := range lens {
			parts[i] = fill(buf.Window(offs[i], offs[i+1]-offs[i]), first, n)
			first += n
		}
		return parts
	}

	buf := make(PointCloud, 0, 10)
	offs := []uint64{0, 3, 3, 10}
	check("exact", buf.Join(offs, windows(buf, offs, 3, 0, 7)), 10, true, buf)

	buf = make(PointCloud, 0, 10)
	check("gap", buf.Join(offs, windows(buf, offs, 2, 0, 7)), 9, true, buf) // the first came up short

	buf = make(PointCloud, 0, 10)
	offs = []uint64{0, 3, 6, 10}
	check("gaps", buf.Join(offs, windows(buf, offs, 1, 0, 4)), 5, true, buf) // short, missing, full

	buf = make(PointCloud, 0, 10)
	offs = []uint64{0, 3, 10}
	check("overflow", buf.Join(offs, windows(buf, offs, 5, 7)), 12, false, buf) // the first outgrew its window

	buf = make(PointCloud, 0, 10)
	check("overflow after a gap", buf.Join(offs, windows(buf, offs, 1, 9)), 10, false, buf)

	buf = make(PointCloud, 0, 4) // capacity clamped below the declared 10
	check("clamped", buf.Join(offs, windows(buf, offs, 3, 7)), 10, false, buf)

	buf = fill(make(PointCloud, 0, 10), 0, 2) // joining after points already there
	offs = []uint64{0, 3, 8}
	check("append", buf.Join(offs, windows(buf, offs, 3, 5)), 10, true, buf)

	buf = fill(make(PointCloud, 0, 10), 0, 2)
	check("append over a gap", buf.Join(offs, windows(buf, offs, 1, 5)), 8, true, buf)

	check("nothing", PointCloud(nil).Join([]uint64{0, 0, 0}, []PointCloud{nil, nil}), 0, false, nil)
	if w := buf.Window(1<<63, 1<<63); len(w) != 0 || cap(w) != 0 {
		t.Fatalf("window past the capacity has cap %d", cap(w))
	}
	// An offset past the capacity is where Window clamps to: a part cannot
	// be there, and Join does not look.
	buf = make(PointCloud, 0, 3)
	offs = []uint64{0, 3, 1 << 63}
	check("offset past the capacity", buf.Join(offs, windows(buf, offs, 3, 2)), 5, false, buf)
}
