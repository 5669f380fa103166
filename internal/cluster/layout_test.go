package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
)

// xyz packs keys the way every release before layouts did. It is the
// reference the other layouts are held to, and reachable from tests only.
var xyz = layout{row: 0, col: 1, run: 2}

var allLayouts = []layout{xyz, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

var frames sync.Map // "kind/seed" → geom.PointCloud

// simFrame returns a shared full-resolution frame; layout 1 of a scene is
// seed 1. Tests must not mutate it.
func simFrame(t testing.TB, kind lidar.SceneKind, seed int64) geom.PointCloud {
	t.Helper()
	key := fmt.Sprintf("%s/%d", kind, seed)
	if pc, ok := frames.Load(key); ok {
		return pc.(geom.PointCloud)
	}
	scene, err := lidar.NewScene(kind, seed)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := frames.LoadOrStore(key, lidar.HDL64E().Simulate(scene, seed))
	return pc.(geom.PointCloud)
}

// sector cuts the first n points within 20° of the +x direction out of pc.
func sector(pc geom.PointCloud, n int) geom.PointCloud {
	var out geom.PointCloud
	for _, pt := range pc {
		if len(out) < n && pt.X > 0 && math.Abs(pt.Y) < pt.X*math.Tan(20*math.Pi/180) {
			out = append(out, pt)
		}
	}
	return out
}

// TestKeyLayoutInvariance: the layout decides what the sweep costs and
// nothing else — under each of the six, at every width, the labels are
// those of the (x, y, z) packing.
func TestKeyLayoutInvariance(t *testing.T) {
	clouds := map[string]geom.PointCloud{
		"city":        simFrame(t, lidar.City, 1),
		"road":        simFrame(t, lidar.Road, 1),
		"city sector": sector(simFrame(t, lidar.City, 1), 5000),
		"blobs 1":     testCloud(1),
		"blobs 2":     testCloud(2),
	}
	p := DefaultParams(0.02)
	for name, pc := range clouds {
		bounds := geom.Bounds(pc)
		var want Result
		partest.At(1, func() { want = approximateIn(pc, bounds, p, xyz) })
		if name != "city sector" && want.NumDense == 0 {
			t.Fatalf("%s: no dense points to compare", name)
		}
		for _, lay := range allLayouts {
			for _, procs := range partest.Widths {
				var got Result
				partest.At(procs, func() { got = approximateIn(pc, bounds, p, lay) })
				if got.NumDense != want.NumDense || got.NumDenseCells != want.NumDenseCells || !slices.Equal(got.Dense, want.Dense) {
					t.Fatalf("%s: layout %+v at GOMAXPROCS %d: %d dense points in %d cells, (x,y,z) has %d in %d",
						name, lay, procs, got.NumDense, got.NumDenseCells, want.NumDense, want.NumDenseCells)
				}
			}
		}
	}
}

// columns counts the columns the window sweep walks for pc under lay.
func columns(pc geom.PointCloud, p Params, lay layout) int {
	side, min := 2*p.Q, geom.Bounds(pc).Min
	cols := make([]uint64, len(pc))
	for i, pt := range pc {
		cols[i] = lay.key(pt, min, side, 0) >> axisBits
	}
	slices.Sort(cols)
	return len(slices.Compact(cols))
}

// TestKeyLayoutFollowsScene: the layout is read off the frame's extents —
// shortest axis to the column field, longest to the run field, ties by axis
// index — and on LiDAR frames it about halves the columns of (x, y, z) or
// better. The counts are properties of the simulated frames and repeat.
func TestKeyLayoutFollowsScene(t *testing.T) {
	p := DefaultParams(0.02)
	side := 2 * p.Q
	road := simFrame(t, lidar.Road, 1)
	lay := layoutFor(geom.Bounds(road), side)
	if lay.col != 2 {
		t.Fatalf("road frame: layout %+v, want z in the column field", lay)
	}

	// The same scene lying on its side: x takes z's place, and no label
	// moves.
	turned := make(geom.PointCloud, len(road))
	for i, pt := range road {
		turned[i] = geom.Point{X: pt.Z, Y: pt.Y, Z: pt.X}
	}
	tl := layoutFor(geom.Bounds(turned), side)
	if want := (layout{row: 2 - lay.row, col: 0, run: 2 - lay.run}); tl != want {
		t.Fatalf("road frame with x and z exchanged: layout %+v, want %+v", tl, want)
	}
	if a, b := approximate(road, p), approximate(turned, p); a.NumDense == 0 || !slices.Equal(a.Dense, b.Dense) {
		t.Fatalf("exchanging x and z changed the labels: %d dense points, then %d", a.NumDense, b.NumDense)
	}

	// All extents equal: the fields go to the axes in index order.
	rng := rand.New(rand.NewSource(6))
	cube := blob(geom.PointCloud{{X: -3, Y: -3, Z: -3}, {X: 3, Y: 3, Z: 3}}, rng, geom.Point{}, 0.5, 2000)
	if cl, want := layoutFor(geom.Bounds(cube), side), (layout{row: 1, col: 0, run: 2}); cl != want {
		t.Fatalf("cube-shaped cloud: layout %+v, want %+v", cl, want)
	}

	for _, c := range []struct {
		kind        lidar.SceneKind
		chosen, old int
	}{
		{lidar.City, 26535, 51683},
		{lidar.Road, 22187, 77776},
	} {
		pc := simFrame(t, c.kind, 1)
		chosen, old := columns(pc, p, layoutFor(geom.Bounds(pc), side)), columns(pc, p, xyz)
		if chosen != c.chosen || old != c.old {
			t.Errorf("%s: %d columns under the chosen layout and %d under (x,y,z), want %d and %d", c.kind, chosen, old, c.chosen, c.old)
		}
	}
}
