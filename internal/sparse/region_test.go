package sparse

import (
	"math"
	"math/rand"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/polyline"
)

// TestWindowHoldsTheBox: a quantized point that converts to a point inside a
// box is inside the box's window — for boxes all around the sensor, across
// the seam at θ = 0, on the z axis, of no width and inverted, and for points
// on the grid an encoder writes as well as off it (a negative radius, angles
// turns away from their range, which the conversion folds back). The window
// also has to be worth having: it keeps under a third of a shell's points
// for the lane box.
func TestWindowHoldsTheBox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qz := NewQuantizer(0.02, 40)
	nTheta, nPhi, nR := int64(math.Pi/qz.QTheta), int64(math.Pi/(2*qz.QPhi)), int64(40/(2*qz.QR))
	coord := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	boxes := []geom.AABB{
		{Min: geom.Point{X: 5, Y: -5, Z: -3}, Max: geom.Point{X: 25, Y: 5, Z: 3}},
		{Min: geom.Point{X: 3, Y: -0.05, Z: -3}, Max: geom.Point{X: 60, Y: 0.05, Z: 3}},
		{Min: geom.Point{X: -6, Y: -6, Z: -3}, Max: geom.Point{X: 6, Y: 6, Z: 3}},
		{Min: geom.Point{X: 0, Y: 0, Z: -3}, Max: geom.Point{X: 10, Y: 10, Z: 3}},
		{Min: geom.Point{X: 25, Y: 5, Z: 3}, Max: geom.Point{X: 5, Y: -5, Z: -3}},
	}
	for len(boxes) < 400 {
		a := geom.Point{X: coord(-45, 45), Y: coord(-45, 45), Z: coord(-5, 5)}
		b := geom.Point{X: a.X + coord(0, 30)*float64(rng.Intn(3)), Y: a.Y + coord(0, 30)*float64(rng.Intn(3)), Z: a.Z + coord(0, 8)}
		boxes = append(boxes, geom.AABB{Min: a, Max: b})
	}
	inside := 0
	for bi, box := range boxes {
		w := newWindow(box, qz)
		kept := 0
		const n = 20000
		for i := 0; i < n; i++ {
			p := polyline.Point{Theta: rng.Int63n(nTheta + 1), Phi: rng.Int63n(nPhi + 1), R: rng.Int63n(nR + 1)}
			if i%10 == 9 { // off the grid
				p.Theta += (rng.Int63n(5) - 2) * nTheta
				p.Phi += (rng.Int63n(3) - 1) * nPhi
				p.R *= rng.Int63n(2)*2 - 1
			}
			may := w.mayHold(p)
			if may {
				kept++
			}
			if c := qz.Cartesian(p); box.Contains(c) {
				inside++
				if !may {
					t.Fatalf("box %d %+v: %+v converts to %v inside it, outside the window %+v", bi, box, p, c, w)
				}
			}
		}
		if bi == 0 && kept > n/3 {
			t.Errorf("the lane box's window keeps %d of %d points of the shell", kept, n)
		}
	}
	if inside < 10000 {
		t.Errorf("only %d points fell inside a box", inside)
	}
}

// TestConverterMatchesQuantizer: the decode loop's converter returns
// Quantizer.Cartesian's floats, bit for bit, whether or not a point shares
// its polar angle with the one before it.
func TestConverterMatchesQuantizer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qz := NewQuantizer(0.02, 63.7)
	conv := converter{qz: qz}
	p := polyline.Point{}
	for i := 0; i < 100000; i++ {
		p.Theta, p.R = rng.Int63n(200000), rng.Int63n(3000)
		if rng.Intn(3) == 0 {
			p.Phi = rng.Int63n(100000) - 1000
		}
		if got, want := conv.cartesian(p), qz.Cartesian(p); got != want {
			t.Fatalf("%+v: %v, Quantizer.Cartesian gives %v", p, got, want)
		}
	}
}
