package sparse

import (
	"math"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/polyline"
)

// DecodeRegionInto is DecodeInto keeping only the points inside region (all
// of them when it is nil). Groups are radial shells (each records its
// r_max; its lower edge is the previous group's r_max), so a bounding-box
// query skips, without entropy-decoding them, the groups whose shell cannot
// reach the box — most groups of a large frame — and the groups it opens
// test each point against the box as they convert it to Cartesian, so a
// point outside is never written — and, most points of a shell a narrow box
// opens lying outside its range of radius and azimuth, few are converted
// (window). In a forward-first stream a box wholly at x > 0 decodes each
// group it opens only as far as its lines ahead of the sensor reach
// (decodeGroup), trusting the order the full decode checks. Cartesian-mode
// streams carry no radial structure and decode fully. The groups that
// decode are charged to opts.Budget as DecodeWith charges them, whole, and
// a skipped group still pays for the points its header declares, so the
// point limit that refuses a frame's full decode refuses its every query.
// Given room for PointCountIn(data, region) points, every point kept is
// written where the decode can close the result up in place.
func DecodeRegionInto(dst geom.PointCloud, data []byte, region *geom.AABB, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	fr, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	groups, skipped := fr.reaching(region)
	for _, g := range skipped {
		if err := opts.Budget.Points(int64(fr.groupPoints(g))); err != nil {
			return nil, err
		}
	}
	return fr.decodeGroups(dst, groups, region, opts)
}

// PointCountIn is PointCount over the groups a decode with region opens:
// an untrusted hint for sizing DecodeRegionInto's destination.
func PointCountIn(data []byte, region *geom.AABB) uint64 {
	fr, _ := parseFrame(data)
	groups, _ := fr.reaching(region)
	var n uint64
	for _, g := range groups {
		n += fr.groupPoints(g)
	}
	return n
}

// reaching splits fr's groups, in stream order, into those whose radial
// shell can reach the box and those it cannot. A nil region, or a
// Cartesian-mode stream, keeps them all.
func (fr frame) reaching(region *geom.AABB) (groups, skipped [][]byte) {
	if region == nil || fr.gf.cartesian {
		return fr.groups, nil
	}
	rLo, rHi := radialRange(*region)
	// Quantization can nudge a point just past its group edge.
	slack := 2 * fr.q
	prevRMax := 0.0
	for _, g := range fr.groups {
		// A group too short for its header is kept, for decodeGroups to
		// refuse.
		if h, _, err := fr.readGroupHeader(fr.groupBody(g)); err == nil {
			lo := prevRMax
			prevRMax = h.rMax
			if h.rMax+slack < rLo || lo-slack > rHi {
				skipped = append(skipped, g)
				continue
			}
		}
		groups = append(groups, g)
	}
	return groups, skipped
}

// radialRange returns the radial interval of the box as seen from the
// sensor at the origin.
func radialRange(b geom.AABB) (lo, hi float64) {
	// Nearest point of the box to the origin per axis.
	nearest := geom.Point{
		X: min(max(0, b.Min.X), b.Max.X),
		Y: min(max(0, b.Min.Y), b.Max.Y),
		Z: min(max(0, b.Min.Z), b.Max.Z),
	}
	lo = nearest.Norm()
	for _, x := range []float64{b.Min.X, b.Max.X} {
		for _, y := range []float64{b.Min.Y, b.Max.Y} {
			for _, z := range []float64{b.Min.Z, b.Max.Z} {
				hi = math.Max(hi, (geom.Point{X: x, Y: y, Z: z}).Norm())
			}
		}
	}
	return lo, hi
}

// window is a box as a polar group sees it before it converts a point: the
// quantized radii and the arc of azimuth a point inside the box can have, a
// quantization step of slack around each. A point outside the window is
// outside the box, so the group's decode loop spares it the two math.Sincos
// of the conversion; a point inside takes the exact test.
type window struct {
	rLo, rHi     int64   // quantized radii
	thetaStep    float64 // radians a quantized θ
	phiStep      float64 // radians a quantized φ
	theta, width float64 // the arc [theta, theta+width], theta in [0, 2π); the whole circle from width 2π
}

func newWindow(b geom.AABB, qz Quantizer) window {
	w := window{thetaStep: 2 * qz.QTheta, phiStep: 2 * qz.QPhi, width: 2 * math.Pi}
	lo, hi := radialRange(b)
	w.rLo, w.rHi = int64(math.Floor(lo/(2*qz.QR)))-1, int64(math.Ceil(hi/(2*qz.QR)))+1
	if hi/(2*qz.QR) >= math.MaxInt64/2 {
		w.rHi = math.MaxInt64
	}
	// A footprint that holds the sensor's axis is seen under every azimuth
	// (and an inverted box holds nothing: the exact test says so). Any other
	// is convex and off the axis, so it is seen within the arc its corners
	// span, which is under half a turn and measured here from the direction
	// of its centre so that the seam at θ = 0 is nowhere special.
	if !(b.Min.X > 0 || b.Max.X < 0 || b.Min.Y > 0 || b.Max.Y < 0) || b.Min.X > b.Max.X || b.Min.Y > b.Max.Y {
		return w
	}
	cx, cy := (b.Min.X+b.Max.X)/2, (b.Min.Y+b.Max.Y)/2
	var first, last float64
	for _, x := range [2]float64{b.Min.X, b.Max.X} {
		for _, y := range [2]float64{b.Min.Y, b.Max.Y} {
			rel := math.Atan2(cx*y-cy*x, cx*x+cy*y)
			first, last = math.Min(first, rel), math.Max(last, rel)
		}
	}
	theta := math.Atan2(cy, cx) + first - w.thetaStep
	width := last - first + 2*w.thetaStep
	if !(width < 2*math.Pi) { // also a NaN corner
		return w
	}
	w.theta, w.width = theta-2*math.Pi*math.Floor(theta/(2*math.Pi)), width
	return w
}

// mayHold reports whether p can convert to a point inside the window's box.
// Coordinates no encoder writes — a negative radius, an angle outside its
// range, which Quantizer.Cartesian folds back onto the sphere — are left to
// the exact test.
func (w window) mayHold(p polyline.Point) bool {
	theta, phi := float64(p.Theta)*w.thetaStep, float64(p.Phi)*w.phiStep
	if p.R < 0 || theta < 0 || theta > 2*math.Pi+w.thetaStep || phi < 0 || phi > math.Pi+w.phiStep {
		return true
	}
	if p.R < w.rLo || p.R > w.rHi {
		return false
	}
	d := theta - w.theta // in (−2π, 2π + a step]
	if d < 0 {
		d += 2 * math.Pi
	} else if d >= 2*math.Pi {
		d -= 2 * math.Pi
	}
	return d <= w.width
}

// halves cuts a polar group's quantized points in two at x = 0, for the
// forward-first order: a point is behind the sensor when its quantized θ
// lies in [thetaLo, thetaHi] — [π/2, 3π/2] narrowed to where the cosine of
// the dequantized θ is not positive — and its quantized φ in [0, phiHi],
// where the sine of the dequantized φ is not negative. Such a point
// converts to x ≤ 0 whatever its radius, so a box wholly at x > 0 holds no
// point behind the sensor. Both bounds are integers computed from the
// group's quantizer alone, so the encoder and the decoder cut every point
// the same way. (A φ rounded past π, within half a step of the nadir, puts
// a point ahead: its sine is negative and it may convert to x > 0.)
type halves struct {
	thetaLo, thetaHi, phiHi int64
}

func newHalves(qz Quantizer) halves {
	cos := func(t int64) float64 { _, c := math.Sincos(qz.Dequantize(t, 0, 0).Theta); return c }
	sin := func(t int64) float64 { s, _ := math.Sincos(qz.Dequantize(0, t, 0).Phi); return s }
	h := halves{
		thetaLo: int64(math.Ceil(math.Pi / 2 / (2 * qz.QTheta))),
		thetaHi: int64(math.Floor(3 * math.Pi / 2 / (2 * qz.QTheta))),
		phiHi:   int64(math.Floor(math.Pi / (2 * qz.QPhi))),
	}
	// The rounded quotients miss the crossings by at most a rounding error,
	// so one step inwards is all an edge can need; inside the edges the
	// cosine and the sine are a step or more away from zero.
	if cos(h.thetaLo) > 0 {
		h.thetaLo++
	}
	if cos(h.thetaHi) > 0 {
		h.thetaHi--
	}
	if sin(h.phiHi) < 0 {
		h.phiHi--
	}
	return h
}

// behind reports whether p lies in the half behind the sensor.
func (h halves) behind(p polyline.Point) bool {
	return p.Theta >= h.thetaLo && p.Theta <= h.thetaHi && p.Phi >= 0 && p.Phi <= h.phiHi
}

// side reports whether line l lies behind the sensor, and mixed when its
// points lie on both sides. θ ascends along a line, so one that starts past
// thetaHi or ends before thetaLo is ahead without a look at its points.
func (h halves) side(l polyline.Line) (back, mixed bool) {
	if l[0].Theta > h.thetaHi || l[len(l)-1].Theta < h.thetaLo {
		return false, false
	}
	back = h.behind(l[0])
	for _, p := range l[1:] {
		if h.behind(p) != back {
			return back, true
		}
	}
	return back, false
}
