package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dbgc/internal/cluster"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
	"dbgc/internal/polyline"
)

// coreSparseOptions is core's default sparse configuration.
func coreSparseOptions(context bool) Options {
	return Options{Q: 0.02, Groups: 6, UTheta: 2 * math.Pi / 2000, UPhi: (26.8 / 64) * math.Pi / 180, Context: context}
}

// sceneStream is the sparse points of a scene's layout-1 HDL-64E frame
// encoded under core's default sparse options, with the forward-first order (v5) or
// without it (v2), and the stream's full decode.
type sceneStream struct {
	pc   geom.PointCloud
	enc  Encoded
	full geom.PointCloud
}

var sceneStreams = struct {
	sync.Mutex
	m map[string]sceneStream
}{m: map[string]sceneStream{}}

// encodedScene returns the scene's sceneStream, encoded and decoded once
// per test binary: the tests below share them.
func encodedScene(t *testing.T, kind lidar.SceneKind, context bool) sceneStream {
	t.Helper()
	key := fmt.Sprintf("%s/%v", kind, context)
	sceneStreams.Lock()
	defer sceneStreams.Unlock()
	if s, ok := sceneStreams.m[key]; ok {
		return s
	}
	scene, err := lidar.NewScene(kind, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := lidar.HDL64E().Simulate(scene, 1)
	var idx []int32 // what clustering leaves to this package
	for i, dense := range cluster.Approximate(pc, geom.Bounds(pc), cluster.Params{Q: 0.02, K: 10}).Dense {
		if !dense {
			idx = append(idx, int32(i))
		}
	}
	enc, err := Encode(pc, idx, coreSparseOptions(context))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(enc.Data)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	s := sceneStream{pc, enc, full}
	sceneStreams.m[key] = s
	return s
}

// regionCases are the boxes a forward-first region decode is held to the
// full decode on: wholly ahead of the sensor (the prefix path), behind it,
// across x = 0, and ahead with Min.X at zero and at the smallest positive
// float, either side of the edge the prefix path starts at.
var regionCases = map[string]geom.AABB{
	"lane":      {Min: geom.Point{X: 5, Y: -5, Z: -3}, Max: geom.Point{X: 25, Y: 5, Z: 3}},
	"ahead":     {Min: geom.Point{X: 0.5, Y: -80, Z: -10}, Max: geom.Point{X: 80, Y: 80, Z: 10}},
	"behind":    {Min: geom.Point{X: -25, Y: -5, Z: -3}, Max: geom.Point{X: -5, Y: 5, Z: 3}},
	"straddle":  {Min: geom.Point{X: -10, Y: -4, Z: -3}, Max: geom.Point{X: 30, Y: 4, Z: 3}},
	"minx-zero": {Min: geom.Point{X: 0, Y: -40, Z: -5}, Max: geom.Point{X: 40, Y: 40, Z: 5}},
	"minx-tiny": {Min: geom.Point{X: math.SmallestNonzeroFloat64, Y: -40, Z: -5}, Max: geom.Point{X: 40, Y: 40, Z: 5}},
}

// TestRegionMatchesFullDecode: for flagged (v5) and unflagged (v2) streams
// of all six scenes, at GOMAXPROCS 1, 2 and 4, a region decode is the full
// decode's points inside the box, in the full decode's order.
func TestRegionMatchesFullDecode(t *testing.T) {
	for _, kind := range lidar.AllScenes {
		for _, context := range []bool{false, true} {
			s := encodedScene(t, kind, context)
			for _, procs := range []int{1, 2, 4} {
				partest.At(procs, func() {
					for name, box := range regionCases {
						got, err := DecodeRegionInto(nil, s.enc.Data, &box, DecodeOptions{})
						if err != nil {
							t.Fatalf("%s v5=%v %s box, GOMAXPROCS=%d: %v", kind, context, name, procs, err)
						}
						var want geom.PointCloud
						for _, p := range s.full {
							if box.Contains(p) {
								want = append(want, p)
							}
						}
						if !slices.Equal(got, want) || len(want) == 0 {
							t.Fatalf("%s v5=%v %s box, GOMAXPROCS=%d: %d points, want the %d of the full decode in its order", kind, context, name, procs, len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// Lines for hand-written streams (craftV5): a group with rMax 40 and q 0.02
// puts the half behind the sensor at quantized θ 1571 to 4712 (π/2 to 3π/2
// in steps of a milliradian). The ahead lines sit near θ = 0.1, φ = 0.5, r =
// 36 m, at x ≈ 17.
func aheadLines() []polyline.Line {
	return []polyline.Line{
		{{Theta: 100, Phi: 500, R: 900}, {Theta: 110, Phi: 500, R: 905}, {Theta: 120, Phi: 501, R: 910}},
		{{Theta: 105, Phi: 503, R: 910}, {Theta: 130, Phi: 503, R: 920}},
		{{Theta: 6200, Phi: 504, R: 930}}, // a one-point piece, near θ = 2π
	}
}

func behindLine(thetas ...int64) polyline.Line {
	var l polyline.Line
	for _, th := range thetas {
		l = append(l, polyline.Point{Theta: th, Phi: 502, R: 950})
	}
	return l
}

// TestRegionTakesThePrefix: a box wholly ahead of the sensor decodes only
// the lines before the first one behind it. Behind the lines ahead sits a
// polyline that turns back in θ: the full decode and a box across x = 0
// refuse the group for it, while the box ahead never rebuilds it and returns
// the points the same stream with a sound line there gives. (The region
// path trusts the order it is promised; only the full decode checks it.)
func TestRegionTakesThePrefix(t *testing.T) {
	sound := craftV5(append(aheadLines(), behindLine(3000, 3010, 3020)), true)
	broken := craftV5(append(aheadLines(), behindLine(3000, 2990, 3020)), true)
	full, err := Decode(sound)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 9 {
		t.Fatalf("the sound stream decodes to %d points, want 9", len(full))
	}
	if _, err := Decode(broken); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the full decode of a line turning back: %v, want ErrCorrupt", err)
	}
	ahead := geom.AABB{Min: geom.Point{X: 1, Y: -40, Z: -40}, Max: geom.Point{X: 40, Y: 40, Z: 40}}
	across := ahead
	across.Min.X = -40
	want, err := DecodeRegionInto(nil, sound, &ahead, DecodeOptions{})
	if err != nil || len(want) != 6 {
		t.Fatalf("the sound stream's box ahead: %d points, %v; want the 6 ahead", len(want), err)
	}
	got, err := DecodeRegionInto(nil, broken, &ahead, DecodeOptions{})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("the box ahead: %d points, %v; want the sound stream's %d", len(got), err, len(want))
	}
	if _, err := DecodeRegionInto(nil, broken, &across, DecodeOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the box across x = 0: %v, want ErrCorrupt", err)
	}
}

// TestForwardFirstPromiseRefused: the full decode refuses a flagged group
// whose order breaks the promise — a line with points on both sides of
// x = 0, a line ahead after one behind, which is also what setting the flag
// on a stream that never had it gives — and one-point lines in an unflagged
// stream. The stream header refuses flag bits it does not know and the
// flag outside a polar v5 stream.
func TestForwardFirstPromiseRefused(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
		want   string // "" decodes
	}{
		{"sound", craftV5(append(aheadLines(), behindLine(3000, 3010)), true), ""},
		{"unflagged, two-point lines", craftV5(aheadLines()[:2], false), ""},
		{"crosses x = 0", craftV5(append(aheadLines(), behindLine(1560, 1580)), true), "crosses x = 0"},
		{"ahead after behind", craftV5(append([]polyline.Line{behindLine(3000, 3010)}, aheadLines()...), true), "follows one behind"},
		{"flag on an ordinary stream", craftV5(append(aheadLines()[:1], behindLine(1500, 1510, 1600), aheadLines()[1]), true), "crosses x = 0"},
		{"one point, unflagged", craftV5(aheadLines(), false), "polyline length 1"},
		{"one point, legacy", craftStream(aheadLines(), 1), "polyline length 1"},
		{"flag without v5", flagged(craftStream(aheadLines()[:2], 1), flagForwardFirst), "outside a polar v5 stream"},
		{"flag in a Cartesian stream", flagged(craftV5(aheadLines(), true), flagCartesian), "outside a polar v5 stream"},
		{"unknown flag", flagged(craftV5(aheadLines(), true), 1<<6), "unknown flags"},
	} {
		_, err := Decode(c.stream)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (!errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: %v, want ErrCorrupt naming %q", c.name, err, c.want)
		}
	}
}

// flagged returns stream with more bits set in its header's flags, which
// fit the one varint byte every stream here starts with.
func flagged(stream []byte, bits byte) []byte {
	out := slices.Clone(stream)
	out[0] |= bits
	return out
}

// TestHalvesBehindIsNotAhead: a point the halves put behind the sensor
// converts to x ≤ 0, whatever its radius — the guarantee that lets a box
// wholly at x > 0 drop it undecoded — checked at the edges of the half,
// where rounding decides, for groups from the degenerate one hugging the
// sensor to a far one, and in the middle. A step past either θ edge is
// ahead.
func TestHalvesBehindIsNotAhead(t *testing.T) {
	for _, q := range []float64{0.001, 0.02, 0.5} {
		for _, rMax := range []float64{0.001, 1, 40, 120.7, 1e4} {
			qz := NewQuantizer(q, rMax)
			hv := newHalves(qz)
			conv := converter{qz: qz}
			mid := (hv.thetaLo + hv.thetaHi) / 2
			var thetas, phis []int64
			for d := int64(-3); d <= 3; d++ {
				thetas = append(thetas, hv.thetaLo+d, hv.thetaHi+d, mid+d)
				phis = append(phis, hv.phiHi+d, d, hv.phiHi/2+d)
			}
			behind := 0
			for _, th := range thetas {
				for _, ph := range phis {
					for _, r := range []int64{0, 1, 1000, 1 << 40} {
						p := polyline.Point{Theta: th, Phi: ph, R: r}
						if !hv.behind(p) {
							continue
						}
						behind++
						if x := conv.cartesian(p).X; x > 0 {
							t.Fatalf("q %v rMax %v: %+v is behind the sensor and converts to x = %v", q, rMax, p, x)
						}
					}
				}
			}
			if behind == 0 || hv.behind(polyline.Point{Theta: hv.thetaLo - 1, Phi: 1}) || hv.behind(polyline.Point{Theta: hv.thetaHi + 1, Phi: 1}) {
				t.Fatalf("q %v rMax %v: halves %+v", q, rMax, hv)
			}
		}
	}
}

// TestHalvesSide: a line's side, which skips the points of a line wholly
// outside the θ range behind the sensor, is what classifying every point
// gives — on lines that start, end and cross near both θ edges and the
// nadir's φ edge.
func TestHalvesSide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hv := newHalves(NewQuantizer(0.02, 40))
	edges := []int64{0, hv.thetaLo, hv.thetaHi, 6283}
	for i := 0; i < 20000; i++ {
		line := make(polyline.Line, 1+rng.Intn(6))
		theta := edges[rng.Intn(len(edges))] + rng.Int63n(21) - 10
		for k := range line {
			theta += rng.Int63n(4)
			line[k] = polyline.Point{Theta: theta, Phi: 1000 + rng.Int63n(3)}
			if rng.Intn(4) == 0 {
				line[k].Phi = hv.phiHi + rng.Int63n(3) - 1
			}
		}
		wantBack, wantMixed := hv.behind(line[0]), false
		for _, p := range line {
			wantMixed = wantMixed || hv.behind(p) != wantBack
		}
		if back, mixed := hv.side(line); mixed != wantMixed || !mixed && back != wantBack {
			t.Fatalf("%+v: side says behind %v, mixed %v; its points say %v, %v", line, back, mixed, wantBack, wantMixed)
		}
	}
}
