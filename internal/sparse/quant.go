// Package sparse implements DBGC's coordinate compression of sparse points
// (§3.5): coordinate scaling under the error bound (step 1, Theorem 3.2),
// per-polyline delta encoding of the angles (step 2), stream reorganization
// and concatenation (steps 3-5), Deflate-coded azimuthal streams (step 6),
// arithmetic-coded polar streams (step 7), the radial distance optimized
// delta encoding (step 8, Definition 3.3), and the output layout (step 9).
// Point grouping by radial distance (§3.5 "Point Grouping") wraps the whole
// pipeline.
package sparse

import (
	"math"

	"dbgc/internal/geom"
	"dbgc/internal/polyline"
)

// Quantizer performs coordinate scaling (§3.5 step 1): each spherical
// dimension is divided by twice its error bound and rounded, so the
// reconstruction error per dimension is at most the bound. Following
// Theorem 3.2, q_θ = q_φ = q_xyz / r_max and q_r = q_xyz, which keeps the
// Euclidean reconstruction error within the √3·q_xyz of the Cartesian
// scheme.
type Quantizer struct {
	QTheta, QPhi, QR float64
}

// NewQuantizer builds the quantizer for error bound q and the group's
// maximum radial distance rMax.
func NewQuantizer(q, rMax float64) Quantizer {
	if rMax < q {
		rMax = q // degenerate group hugging the sensor
	}
	return Quantizer{QTheta: q / rMax, QPhi: q / rMax, QR: q}
}

// Quantize scales and rounds spherical coordinates to integers.
func (qz Quantizer) Quantize(s geom.Spherical) (theta, phi, r int64) {
	return int64(math.Round(s.Theta / (2 * qz.QTheta))),
		int64(math.Round(s.Phi / (2 * qz.QPhi))),
		int64(math.Round(s.R / (2 * qz.QR)))
}

// Dequantize maps quantized integers back to spherical coordinates.
func (qz Quantizer) Dequantize(theta, phi, r int64) geom.Spherical {
	return geom.Spherical{
		Theta: float64(theta) * 2 * qz.QTheta,
		Phi:   float64(phi) * 2 * qz.QPhi,
		R:     float64(r) * 2 * qz.QR,
	}
}

// Cartesian returns the Cartesian position of a quantized point.
func (qz Quantizer) Cartesian(p polyline.Point) geom.Point {
	return geom.ToCartesian(qz.Dequantize(p.Theta, p.Phi, p.R))
}

// converter is Quantizer.Cartesian for a run of points that mostly share
// their polar angle with the point before them, as the points of a polyline
// do (most φ deltas are zero): it keeps the sine and cosine of the last φ,
// which is one math.Sincos of the two a conversion takes. The floats are
// Quantizer.Cartesian's, bit for bit.
type converter struct {
	qz             Quantizer
	phi            int64
	sinPhi, cosPhi float64
	warm           bool
}

func (c *converter) cartesian(p polyline.Point) geom.Point {
	s := c.qz.Dequantize(p.Theta, p.Phi, p.R)
	if !c.warm || p.Phi != c.phi {
		c.sinPhi, c.cosPhi = math.Sincos(s.Phi)
		c.phi, c.warm = p.Phi, true
	}
	sinTheta, cosTheta := math.Sincos(s.Theta)
	return geom.Point{X: s.R * c.sinPhi * cosTheta, Y: s.R * c.sinPhi * sinTheta, Z: s.R * c.cosPhi}
}

// cartesianQuantizer is the -Conversion ablation (§4.3): polylines are
// organized and coded directly on scaled Cartesian coordinates, with
// (x, y, z) standing in for (θ, φ, r).
type cartesianQuantizer struct {
	q float64
}

func (cq cartesianQuantizer) Quantize(p geom.Point) (tx, ty, tz int64) {
	return int64(math.Round(p.X / (2 * cq.q))),
		int64(math.Round(p.Y / (2 * cq.q))),
		int64(math.Round(p.Z / (2 * cq.q)))
}

func (cq cartesianQuantizer) Dequantize(tx, ty, tz int64) geom.Point {
	return geom.Point{
		X: float64(tx) * 2 * cq.q,
		Y: float64(ty) * 2 * cq.q,
		Z: float64(tz) * 2 * cq.q,
	}
}

func (cq cartesianQuantizer) Cartesian(p polyline.Point) geom.Point {
	return cq.Dequantize(p.Theta, p.Phi, p.R)
}
