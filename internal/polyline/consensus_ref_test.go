package polyline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// referenceConsensus is consensus construction as it was before l* slid
// from line to line: the reference polylines of lines[idx] merged from
// nothing in ⟨PL⟩ order, each later (φ-closer) polyline replacing the
// consensus points inside its azimuthal span. The result is nil when the
// reference set is empty. With SearchLeft, SearchRight and SearchAt — the
// neighbour queries as three binary searches — it is what Consensus and its
// cursor are held to.
func referenceConsensus(lines []Line, idx int, thPhi int64) Line {
	var cons Line
	for _, l := range lines[RefWindow(lines, idx, thPhi):idx] {
		cons = mergeInto(nil, cons, l)
	}
	return cons
}

// mergeInto appends to dst the merge of cons and l: l's points replace the
// consensus points within l's azimuthal span, keeping the result sorted by
// θ. dst must not alias cons.
func mergeInto(dst, cons Line, l Line) Line {
	if len(cons) == 0 {
		return append(dst, l...)
	}
	headT := l.Head().Theta
	tailT := l.Tail().Theta
	// cut points: cons[:a] has θ < headT; cons[b:] has θ > tailT.
	a := sort.Search(len(cons), func(i int) bool { return cons[i].Theta >= headT })
	b := sort.Search(len(cons), func(i int) bool { return cons[i].Theta > tailT })
	dst = append(dst, cons[:a]...)
	dst = append(dst, l...)
	dst = append(dst, cons[b:]...)
	return dst
}

// SearchLeft returns the rightmost point of l with θ < theta, if any.
func SearchLeft(l Line, theta int64) (Point, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Theta >= theta })
	if i == 0 {
		return Point{}, false
	}
	return l[i-1], true
}

// SearchRight returns the leftmost point of l with θ > theta, if any.
func SearchRight(l Line, theta int64) (Point, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Theta > theta })
	if i == len(l) {
		return Point{}, false
	}
	return l[i], true
}

// SearchAt returns a point of l with θ equal to theta, if any.
func SearchAt(l Line, theta int64) (Point, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i].Theta >= theta })
	if i < len(l) && l[i].Theta == theta {
		return l[i], true
	}
	return Point{}, false
}

// checkConsensus slides c over lines[:n] and holds it, line by line, to
// referenceConsensus — same points in the same order — and, query by query,
// to the three searches: the head by Find, the tails by Walk, as step 8
// asks them. It returns l* of lines[n-1] as c holds it.
func checkConsensus(t *testing.T, c *Consensus, lines []Line, n int, thPhi int64) Line {
	t.Helper()
	var got Line
	for i := 0; i < n; i++ {
		c.Advance(lines, i, thPhi)
		want := referenceConsensus(lines, i, thPhi)
		got = got[:0]
		for _, p := range c.pts {
			got = append(got, Point{Theta: p.theta, R: p.r})
		}
		if len(got) != len(want) {
			t.Fatalf("line %d: l* has %d points, reference %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k].Theta != want[k].Theta || got[k].R != want[k].R {
				t.Fatalf("line %d: l*[%d] = (θ %d, r %d), reference (θ %d, r %d)", i, k, got[k].Theta, got[k].R, want[k].Theta, want[k].R)
			}
		}
		for k, p := range lines[i] {
			if k == 0 {
				c.Find(p.Theta)
			} else {
				c.Walk(p.Theta)
			}
			wl, okL := SearchLeft(want, p.Theta)
			wr, okR := SearchRight(want, p.Theta)
			wm, okM := SearchAt(want, p.Theta)
			if r, ok := c.Left(); ok != okL || r != wl.R {
				t.Fatalf("line %d point %d (θ %d): Left = %d %v, reference %d %v", i, k, p.Theta, r, ok, wl.R, okL)
			}
			if r, ok := c.Right(); ok != okR || r != wr.R {
				t.Fatalf("line %d point %d (θ %d): Right = %d %v, reference %d %v", i, k, p.Theta, r, ok, wr.R, okR)
			}
			if r, ok := c.At(); ok != okM || r != wm.R {
				t.Fatalf("line %d point %d (θ %d): At = %d %v, reference %d %v", i, k, p.Theta, r, ok, wm.R, okM)
			}
		}
	}
	return got
}

// slidingConsensus returns l* of lines[idx] built by sliding a fresh
// Consensus up to it, checked against the reference all the way.
func slidingConsensus(t *testing.T, lines []Line, idx int, thPhi int64) Line {
	t.Helper()
	return checkConsensus(t, new(Consensus), lines, idx+1, thPhi)
}

// consensusShapes counts the line-set families consensusCase draws from.
const consensusShapes = 7

// consensusCase builds one seeded line set for the differential test. The
// families are the ones a sliding line can get wrong: more than MaxRefLines
// lines at one polar angle (the cap drops a line at every step), polar gaps
// wider than thPhi (empty windows, l* starting over), equal-θ runs inside a
// span and at its ends, lines nested wholly inside earlier ones, one-line
// windows, and — what only a crafted stream holds — polar angles out of
// order, where the window's low edge moves back.
func consensusCase(seed int64, shape int) (lines []Line, thPhi int64) {
	rng := rand.New(rand.NewSource(seed))
	thPhi = 4
	// line draws a polyline of n points from head, its θ steps from steps.
	line := func(phi, head int64, n int, steps []int64) Line {
		l := make(Line, n)
		theta := head
		for k := range l {
			if k > 0 {
				theta += steps[rng.Intn(len(steps))]
			}
			l[k] = Point{Theta: theta, Phi: phi + rng.Int63n(2), R: rng.Int63n(1000)}
		}
		l[0].Phi = phi
		return l
	}
	n := 2 + rng.Intn(40)
	phi := int64(100)
	for i := 0; i < n; i++ {
		switch shape % consensusShapes {
		case 0: // scan rows: a few lines per polar angle, overlapping spans
			phi += rng.Int63n(3)
			lines = append(lines, line(phi, rng.Int63n(300), 2+rng.Intn(30), []int64{1, 2, 3, 8}))
		case 1: // every line at one polar angle
			lines = append(lines, line(phi, rng.Int63n(100), 1+rng.Intn(12), []int64{1, 2}))
		case 2: // gaps wider than thPhi between short runs
			if rng.Intn(3) == 0 {
				phi += thPhi + 1 + rng.Int63n(3)
			}
			lines = append(lines, line(phi, rng.Int63n(60), 2+rng.Intn(10), []int64{1, 3}))
		case 3: // equal θ everywhere: zero steps, heads and tails on a coarse grid
			phi += rng.Int63n(2)
			lines = append(lines, line(phi, 5*rng.Int63n(8), 2+rng.Intn(8), []int64{0, 0, 5}))
		case 4: // nested spans: each line strictly inside the one before it, then a wide one again
			if i%5 == 0 {
				lines = append(lines, line(phi, 0, 60, []int64{2}))
			} else {
				lines = append(lines, line(phi, int64(10*(i%5)), 2+rng.Intn(3), []int64{1, 2}))
			}
			phi++
		case 5: // one-line windows: every polar step is exactly thPhi
			phi += thPhi
			lines = append(lines, line(phi, rng.Int63n(40), 1+rng.Intn(20), []int64{0, 1, 4}))
		case 6: // polar angles out of order
			lines = append(lines, line(phi+rng.Int63n(12)-6, rng.Int63n(200), 2+rng.Intn(20), []int64{0, 1, 2, 6}))
		}
	}
	if shape%consensusShapes != 6 {
		SortLines(lines)
	}
	return lines, thPhi
}

// TestConsensusMatchesReference holds the sliding consensus line and its
// cursor to the from-nothing merge and the three binary searches on every
// family of consensusCase. One Consensus serves all of them, the way a
// pooled scratch serves one radial group after another: nothing of a set
// may show in the next.
func TestConsensusMatchesReference(t *testing.T) {
	var c Consensus
	for seed := int64(0); seed < 60; seed++ {
		for shape := 0; shape < consensusShapes; shape++ {
			lines, thPhi := consensusCase(seed, shape)
			checkConsensus(t, &c, lines, len(lines), thPhi)
		}
	}
}

func FuzzConsensusMatchesReference(f *testing.F) {
	for shape := 0; shape < consensusShapes; shape++ {
		f.Add(int64(shape), uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		lines, thPhi := consensusCase(seed, int(shape))
		checkConsensus(t, new(Consensus), lines, len(lines), thPhi)
	})
}

// TestConsensusMatchesReferenceOnScenes replays the same check on the
// polylines of real frames: every scene, layouts 1 to 3, the points cut
// into three radial shells and scaled the way sparse's spherical mode
// scales them (q = 2 cm, angular steps q/r_max).
func TestConsensusMatchesReferenceOnScenes(t *testing.T) {
	const q = 0.02
	uTheta, uPhi := 2*math.Pi/2000, (26.8/64)*math.Pi/180
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var c Consensus
	for _, kind := range lidar.AllScenes {
		for _, seed := range seeds {
			scene, err := lidar.NewScene(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			pc := lidar.HDL64E().Simulate(scene, 1)
			nLines := 0
			for _, shell := range [][2]float64{{0, 10}, {10, 25}, {25, math.Inf(1)}} {
				var sph []geom.Spherical
				rMax := q
				for _, p := range pc {
					if s := geom.ToSpherical(p); s.R >= shell[0] && s.R < shell[1] {
						sph = append(sph, s)
						rMax = max(rMax, s.R)
					}
				}
				qa := q / rMax
				pts := make([]Point, len(sph))
				for i, s := range sph {
					pts[i] = Point{
						Theta: int64(math.Round(s.Theta / (2 * qa))),
						Phi:   int64(math.Round(s.Phi / (2 * qa))),
						R:     int64(math.Round(s.R / (2 * q))),
						Orig:  int32(i),
					}
				}
				cfg := Config{
					UTheta: math.Max(1, uTheta/(2*qa)),
					UPhi:   math.Max(1, uPhi/(2*qa)),
					Cartesian: func(p Point) geom.Point {
						return geom.ToCartesian(geom.Spherical{Theta: float64(p.Theta) * 2 * qa, Phi: float64(p.Phi) * 2 * qa, R: float64(p.R) * 2 * q})
					},
				}
				lines, _ := Organize(pts, cfg)
				checkConsensus(t, &c, lines, len(lines), int64(math.Ceil(2*cfg.UPhi)))
				nLines += len(lines)
			}
			if nLines < 1000 {
				t.Errorf("%s layout %d: only %d polylines replayed", kind, seed, nLines)
			}
		}
	}
}
