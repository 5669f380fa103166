package polyline

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/par/partest"
)

// referenceOrganize is Algorithm 1 with no index at all: seeds in (φ, θ, r,
// index) order, and for every extension step a linear scan over all points
// applying Organize's four tests (not taken, φ in the seed's corridor,
// 0 ≤ Δθ ≤ 2u_θ in the extension direction, minimum Euclidean distance) and
// its tie rule (lowest index). Organize must return exactly these lines.
func referenceOrganize(pts []Point, cfg Config) (lines []Line, outliers []Point) {
	ut := cfg.UTheta
	if ut <= 0 {
		ut = 1
	}
	seeds := make([]int, len(pts))
	for i := range seeds {
		seeds[i] = i
	}
	sort.SliceStable(seeds, func(a, b int) bool {
		pa, pb := pts[seeds[a]], pts[seeds[b]]
		if pa.Phi != pb.Phi {
			return pa.Phi < pb.Phi
		}
		if pa.Theta != pb.Theta {
			return pa.Theta < pb.Theta
		}
		return pa.R < pb.R
	})
	taken := make([]bool, len(pts))
	best := func(anchor int, phiMin, phiMax float64, left bool) int {
		at := float64(pts[anchor].Theta)
		apos := cfg.Cartesian(pts[anchor])
		found, foundD := -1, 0.0
		for i, p := range pts {
			if taken[i] || float64(p.Phi) < phiMin || float64(p.Phi) > phiMax {
				continue
			}
			d := float64(p.Theta) - at
			if left {
				d = at - float64(p.Theta)
			}
			if d < 0 || d > 2*ut {
				continue
			}
			if dist := apos.Dist2(cfg.Cartesian(p)); found < 0 || dist < foundD {
				found, foundD = i, dist
			}
		}
		return found
	}
	for _, sd := range seeds {
		if taken[sd] {
			continue
		}
		taken[sd] = true
		phiMin := float64(pts[sd].Phi) - cfg.UPhi
		phiMax := float64(pts[sd].Phi) + cfg.UPhi
		line := Line{pts[sd]}
		for tail := sd; ; {
			if tail = best(tail, phiMin, phiMax, false); tail < 0 {
				break
			}
			taken[tail] = true
			line = append(line, pts[tail])
		}
		for head := sd; ; {
			if head = best(head, phiMin, phiMax, true); head < 0 {
				break
			}
			taken[head] = true
			line = append(Line{pts[head]}, line...)
		}
		if len(line) == 1 {
			outliers = append(outliers, pts[sd])
			continue
		}
		lines = append(lines, line)
	}
	SortLines(lines)
	return lines, outliers
}

// linear reads a quantized point as scaled Cartesian coordinates, the way
// sparse's CartesianMode does.
func linear(scale float64) func(Point) geom.Point {
	return func(p Point) geom.Point {
		return geom.Point{X: float64(p.Theta) * scale, Y: float64(p.Phi) * scale, Z: float64(p.R) * scale}
	}
}

// organizeShapes counts the input families organizeCase draws from.
const organizeShapes = 10

// organizeCase builds one seeded input for the differential test: the
// families are the ones a candidate index can get wrong (column and corridor
// edges, signs, degenerate column layouts, ties, both sort fallbacks).
func organizeCase(seed int64, shape uint8) ([]Point, Config) {
	rng := rand.New(rand.NewSource(seed))
	cfg := defaultCfg()
	var pts []Point
	add := func(theta, phi, r int64) {
		pts = append(pts, Point{Theta: theta, Phi: phi, R: r, Orig: int32(len(pts))})
	}
	// rows adds scan-like rows around (theta0, phi0): azimuth steps near
	// step with jitter, polar jitter, dropouts and occasional gaps.
	rows := func(theta0, phi0, step, rowGap int64, nRows, perRow int) {
		for row := 0; row < nRows; row++ {
			theta := theta0
			r := int64(2000 + rng.Intn(2000))
			for k := 0; k < perRow; k++ {
				theta += step/2 + rng.Int63n(step+1)
				if rng.Intn(10) == 0 {
					theta += 4 * step
				}
				if rng.Intn(8) == 0 {
					continue
				}
				add(theta, phi0+int64(row)*rowGap+rng.Int63n(3)-1, r+rng.Int63n(30))
			}
		}
	}
	switch shape % organizeShapes {
	case 0: // scan rows
		rows(0, 1000, 10, 9, 2+rng.Intn(8), 10+rng.Intn(30))
	case 1: // the same, left of and below zero
		rows(-400, -1040, 10, 9, 2+rng.Intn(8), 10+rng.Intn(30))
	case 2: // thresholds below one quantization step
		cfg.UTheta, cfg.UPhi = 0.2+rng.Float64()*0.7, 0.2+rng.Float64()*0.7
		for i, n := 0, 20+rng.Intn(200); i < n; i++ {
			add(rng.Int63n(9)-4, rng.Int63n(5)-2, 100+rng.Int63n(4))
		}
	case 3: // thresholds far above the coordinate range
		cfg.UTheta, cfg.UPhi = 1e6*(1+rng.Float64()), 1e7
		rows(-150, 1000, 10, 9, 2+rng.Intn(4), 10+rng.Intn(20))
	case 4: // every point in one column
		for i, n := 0, 10+rng.Intn(150); i < n; i++ {
			add(20+rng.Int63n(10), rng.Int63n(60)-30, 3000+rng.Int63n(50))
		}
	case 5: // one point per column
		for i, n := int64(0), int64(10+rng.Intn(150)); i < n; i++ {
			add(10*i*(1+rng.Int63n(2)), 1000+rng.Int63n(20), 3000+rng.Int63n(50))
		}
	case 6: // duplicated coordinates: distance ties go to the lowest index
		pool := make([]Point, 3+rng.Intn(12))
		for i := range pool {
			pool[i] = Point{Theta: rng.Int63n(60), Phi: 1000 + rng.Int63n(12), R: 3000 + rng.Int63n(3)}
		}
		for i, n := 0, 20+rng.Intn(150); i < n; i++ {
			p := pool[rng.Intn(len(pool))]
			add(p.Theta, p.Phi, p.R)
		}
	case 7: // spans too wide for either packed sort key
		cfg.Cartesian = linear(0.04)
		for c := 0; c < 4; c++ {
			rows(rng.Int63n(1<<41)-1<<40, rng.Int63n(1<<41)-1<<40, 10, 9, 1+rng.Intn(4), 5+rng.Intn(20))
		}
		for i := range pts {
			pts[i].R += rng.Int63n(1<<41) - 1<<40
		}
	case 8: // θ beyond float64's integer range: distinct θ share a float
		cfg.Cartesian = linear(0.04)
		cfg.UTheta = 300
		for c := 0; c < 4; c++ {
			rows(rng.Int63n(1<<62)-1<<61, 1000, 200, 9, 1+rng.Intn(4), 5+rng.Intn(20))
		}
	case 9: // sparse's CartesianMode: rings on a 4 cm grid, arc-length thresholds
		const q = 0.02
		radius := 8 + rng.Float64()*30
		cfg = Config{
			UTheta:    math.Max(1, 2*math.Pi/2000*radius/(2*q)),
			UPhi:      math.Max(1, (26.8/64)*math.Pi/180*radius/(2*q)),
			Cartesian: linear(2 * q),
		}
		for ring := 0; ring < 1+rng.Intn(4); ring++ {
			r := radius * (1 + 0.02*float64(ring))
			a := rng.Float64() * 2 * math.Pi
			for k, n := 0, 20+rng.Intn(80); k < n; k++ {
				a += 2 * math.Pi / 2000 * (0.5 + rng.Float64())
				add(int64(math.Round(r*math.Cos(a)/(2*q))), int64(math.Round(r*math.Sin(a)/(2*q))), int64(math.Round(-1.7/(2*q)))+rng.Int63n(2))
			}
		}
	}
	return pts, cfg
}

func checkOrganizeMatchesReference(t *testing.T, seed int64, shape uint8) {
	t.Helper()
	pts, cfg := organizeCase(seed, shape)
	wantLines, wantOut := referenceOrganize(pts, cfg)
	gotLines, gotOut := Organize(pts, cfg)
	if !reflect.DeepEqual(gotLines, wantLines) {
		t.Fatalf("seed %d shape %d (%d points): %d lines, reference has %d, or their points differ", seed, shape%organizeShapes, len(pts), len(gotLines), len(wantLines))
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("seed %d shape %d (%d points): outliers %v, reference %v", seed, shape%organizeShapes, len(pts), gotOut, wantOut)
	}
}

// TestOrganizeMatchesReference holds Organize's candidate index to the
// index-free Algorithm 1 above: same lines in the same order with the same
// points, same outliers.
func TestOrganizeMatchesReference(t *testing.T) {
	for shape := uint8(0); shape < organizeShapes; shape++ {
		for seed := int64(0); seed < 40; seed++ {
			checkOrganizeMatchesReference(t, seed, shape)
		}
	}
}

func FuzzOrganizeMatchesReference(f *testing.F) {
	for shape := uint8(0); shape < organizeShapes; shape++ {
		f.Add(int64(shape), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() { checkOrganizeMatchesReference(t, seed, shape) })
		}
	})
}

// TestSortSeedsFallbackTieOrder covers the comparison-sort path of
// sortSeeds: points equal in all three coordinates keep ascending index
// order there too, as the radix path's stability gives them.
func TestSortSeedsFallbackTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wide := []Point{{Theta: -1 << 40, Phi: -1 << 40, R: -1 << 40}, {Theta: 1 << 40, Phi: 1 << 40, R: 1 << 40}}
	pts := append([]Point(nil), wide...)
	for i := 0; i < 500; i++ {
		pts = append(pts, Point{Theta: rng.Int63n(3), Phi: rng.Int63n(3), R: rng.Int63n(2)})
	}
	var s organizeScratch
	minP, maxP := bounds(pts)
	seeds := s.sortSeeds(pts, minP, maxP)
	for k := 1; k < len(seeds); k++ {
		a, b := pts[seeds[k-1]], pts[seeds[k]]
		if a.Phi == b.Phi && a.Theta == b.Theta && a.R == b.R && seeds[k-1] > seeds[k] {
			t.Fatalf("equal points %d and %d out of index order", seeds[k-1], seeds[k])
		}
		if a.Phi > b.Phi || (a.Phi == b.Phi && (a.Theta > b.Theta || (a.Theta == b.Theta && a.R > b.R))) {
			t.Fatalf("seeds %d and %d out of (φ, θ, r) order", seeds[k-1], seeds[k])
		}
	}
}
