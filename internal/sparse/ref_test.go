package sparse

import (
	"math"
	"slices"
	"testing"

	"dbgc/internal/cluster"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/polyline"
)

// referenceRadial is §3.5 step 8 with nothing carried and nothing indexed:
// for every polyline the consensus line is merged from an empty one over
// its reference window, and every neighbour query is a scan of it. It
// returns ∇L_r and L_ref, which codeRadial must produce exactly when it
// encodes and must turn back into the lines' r when it decodes.
func referenceRadial(lines []polyline.Line, thPhi, thR int64, plainDelta bool) (radials []int64, refs []byte) {
	for i, l := range lines {
		var cons polyline.Line
		if !plainDelta {
			for _, w := range lines[polyline.RefWindow(lines, i, thPhi):i] {
				var next polyline.Line
				for _, p := range cons {
					if p.Theta < w.Head().Theta {
						next = append(next, p)
					}
				}
				next = append(next, w...)
				for _, p := range cons {
					if p.Theta > w.Tail().Theta {
						next = append(next, p)
					}
				}
				cons = next
			}
		}
		// neighbours scans l* for the rightmost point left of theta, the
		// leftmost right of it, and the first at it; nil where there is none.
		neighbours := func(theta int64) (ul, ur, um *polyline.Point) {
			for k := range cons {
				switch p := &cons[k]; {
				case p.Theta < theta:
					ul = p
				case p.Theta > theta && ur == nil:
					ur = p
				case p.Theta == theta && um == nil:
					um = p
				}
			}
			return ul, ur, um
		}
		for k, p := range l {
			if k == 0 {
				var ref int64
				if ul, _, _ := neighbours(p.Theta); ul != nil {
					ref = ul.R
				} else if i > 0 {
					ref = lines[i-1].Head().R
				}
				radials = append(radials, p.R-ref)
				continue
			}
			bl := l[k-1].R
			ul, ur, um := neighbours(p.Theta)
			if ul == nil || ur == nil || abs64(ul.R-ur.R) <= thR && abs64(ul.R-bl) <= thR && abs64(ur.R-bl) <= thR {
				radials = append(radials, p.R-bl)
				continue
			}
			cand := []int64{bl, ul.R, ur.R}
			if um != nil {
				cand = append(cand, um.R)
			}
			best := 0
			for s, c := range cand {
				if abs64(c-p.R) < abs64(cand[best]-p.R) {
					best = s
				}
			}
			refs = append(refs, byte(best))
			radials = append(radials, p.R-cand[best])
		}
	}
	return radials, refs
}

// checkRadial holds codeRadial to referenceRadial on one group's lines, in
// both directions, on the consensus line it is handed.
func checkRadial(t *testing.T, name string, cons *polyline.Consensus, g groupStreams, plainDelta bool) {
	t.Helper()
	nPts := 0
	for _, l := range g.lines {
		nPts += len(l)
	}
	wantRadials, wantRefs := referenceRadial(g.lines, g.thPhi, g.thR, plainDelta)
	radials := make([]int64, nPts)
	refs, err := codeRadial(cons, g.lines, g.thPhi, g.thR, plainDelta, false, radials, nil)
	if err != nil {
		t.Fatalf("%s: encoding: %v", name, err)
	}
	if !slices.Equal(radials, wantRadials) {
		t.Fatalf("%s: ∇L_r differs from the reference's", name)
	}
	if !slices.Equal(refs, wantRefs) {
		t.Fatalf("%s: L_ref differs from the reference's (%d symbols, %d)", name, len(refs), len(wantRefs))
	}
	// The decoder has every θ and φ and no r.
	blank := make([]polyline.Line, len(g.lines))
	for i, l := range g.lines {
		blank[i] = slices.Clone(l)
		for k := range blank[i] {
			blank[i][k].R = 0
		}
	}
	if _, err := codeRadial(cons, blank, g.thPhi, g.thR, plainDelta, true, radials, refs); err != nil {
		t.Fatalf("%s: decoding: %v", name, err)
	}
	for i, l := range g.lines {
		if !slices.Equal(blank[i], l) {
			t.Fatalf("%s: polyline %d decodes to other radial values", name, i)
		}
	}
}

// TestRadialMatchesReference holds the shared step-8 coder — the sliding
// consensus line and its cursor under the situation rules — to
// referenceRadial on the polylines of every radial group of all six scenes,
// layouts 1 to 3, under core's default sparse options, and on layout 1 as
// one group, as plain deltas and in Cartesian mode. One consensus line
// serves every group in turn, in both directions, as a pooled scratch
// does: nothing of a group may show in the next.
func TestRadialMatchesReference(t *testing.T) {
	base := Options{Q: 0.02, Groups: 6, UTheta: 2 * math.Pi / 2000, UPhi: (26.8 / 64) * math.Pi / 180}
	oneGroup, plain, cartesian := base, base, base
	oneGroup.Groups = 1
	plain.DisableRadialOpt = true
	cartesian.CartesianMode = true
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var cons polyline.Consensus
	for _, kind := range lidar.AllScenes {
		for _, seed := range seeds {
			scene, err := lidar.NewScene(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			pc := lidar.HDL64E().Simulate(scene, 1)
			var idx []int32
			for i, dense := range cluster.Approximate(pc, geom.Bounds(pc), cluster.Params{Q: 0.02, K: 10}).Dense {
				if !dense {
					idx = append(idx, int32(i))
				}
			}
			variants := map[string]Options{"default": base}
			if seed == 1 {
				variants["one group"], variants["plain delta"], variants["cartesian"] = oneGroup, plain, cartesian
			}
			for name, opts := range variants {
				nLines := 0
				for _, g := range collectStreams(pc, idx, opts) {
					checkRadial(t, string(kind)+" "+name, &cons, g, opts.DisableRadialOpt)
					nLines += len(g.lines)
				}
				if nLines < 1000 {
					t.Errorf("%s layout %d %s: only %d polylines replayed", kind, seed, name, nLines)
				}
			}
		}
	}
}
