// Package geom provides the geometric primitives shared by every DBGC
// component: points, point clouds, Cartesian/spherical conversion, bounding
// volumes, and the error metrics defined in the paper (Definition 2.2).
package geom

import (
	"cmp"
	"fmt"
	"math"
)

// Point is a 3D point in Cartesian coordinates, in meters.
type Point struct {
	X, Y, Z float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of the vector from the origin to p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root on hot paths such as neighbor counting.
func (p Point) Dist2(q Point) float64 {
	d := p.Sub(q)
	return d.Dot(d)
}

// ChebDist returns the Chebyshev (max per-dimension) distance between p and
// q. The paper's per-dimension error bound (Definition 2.2) is a Chebyshev
// bound.
func (p Point) ChebDist(q Point) float64 {
	return math.Max(math.Abs(p.X-q.X), math.Max(math.Abs(p.Y-q.Y), math.Abs(p.Z-q.Z)))
}

// Compare orders p and q by x, then y, then z, for slices.SortFunc: two
// clouds hold the same points when their sorted copies are equal.
func (p Point) Compare(q Point) int {
	return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y), cmp.Compare(p.Z, q.Z))
}

func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f, %.4f)", p.X, p.Y, p.Z)
}

// Spherical is a point in the spherical coordinate system of Section 3.3:
// Theta is the azimuthal angle in radians measured in the xy-plane from the
// +x axis, Phi is the polar angle in radians measured from the +z axis, and
// R is the radial distance from the origin (the sensor) in meters.
type Spherical struct {
	Theta, Phi, R float64
}

// ToSpherical converts a Cartesian point to spherical coordinates with the
// origin at the sensor. Theta is normalized to [0, 2π); Phi lies in [0, π].
// The origin itself maps to (0, 0, 0).
func ToSpherical(p Point) Spherical {
	r := p.Norm()
	if r == 0 {
		return Spherical{}
	}
	theta := math.Atan2(p.Y, p.X)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	phi := math.Acos(clamp(p.Z/r, -1, 1))
	return Spherical{Theta: theta, Phi: phi, R: r}
}

// ToSphericalR is ToSpherical for a caller that already knows r = p.Norm(),
// skipping the square root. The encode path sorts sparse points by radius
// first, so every conversion there has the norm at hand.
func ToSphericalR(p Point, r float64) Spherical {
	if r == 0 {
		return Spherical{}
	}
	theta := math.Atan2(p.Y, p.X)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	phi := math.Acos(clamp(p.Z/r, -1, 1))
	return Spherical{Theta: theta, Phi: phi, R: r}
}

// ToCartesian converts spherical coordinates back to a Cartesian point.
func ToCartesian(s Spherical) Point {
	sinPhi, cosPhi := math.Sincos(s.Phi)
	sinTheta, cosTheta := math.Sincos(s.Theta)
	return Point{
		X: s.R * sinPhi * cosTheta,
		Y: s.R * sinPhi * sinTheta,
		Z: s.R * cosPhi,
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// PointCloud is a set of points (Definition 2.1). Order is not semantically
// meaningful for a cloud, but slices keep compression deterministic.
type PointCloud []Point

// Clone returns a deep copy of the cloud.
func (pc PointCloud) Clone() PointCloud {
	out := make(PointCloud, len(pc))
	copy(out, pc)
	return out
}

// RawSize returns the uncompressed size in bytes used throughout the paper's
// compression-ratio metric: three 32-bit floats per point (96 bits, §4.4).
func (pc PointCloud) RawSize() int { return len(pc) * 12 }

// Centroid returns the arithmetic mean of the cloud, or the origin for an
// empty cloud.
func (pc PointCloud) Centroid() Point {
	if len(pc) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pc {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pc)))
}

// Window returns the empty slice that starts off points past the end of pc
// in its backing array and has room for n more, as far as pc's capacity
// reaches. A decoder appending at most n points to it writes them in
// place, and decoders given disjoint windows may run concurrently.
func (pc PointCloud) Window(off, n uint64) PointCloud {
	free := uint64(cap(pc) - len(pc))
	off = min(off, free)
	lo := len(pc) + int(off)
	return pc[lo : lo : lo+int(min(n, free-off))]
}

// Join appends parts to pc in order, where parts[i] was appended to
// pc.Window(offs[i], ·). A part still in its window is closed up in place:
// it stays where it is when the parts before it filled their windows
// exactly — a full decode moves nothing — and is moved down over the gap a
// filter or a skipped part left otherwise. The first part that outgrew its
// window has been reallocated elsewhere, so pc, it and the parts after it
// are copied into a fresh slice of exactly their size.
func (pc PointCloud) Join(offs []uint64, parts []PointCloud) PointCloud {
	base, room := len(pc), pc[:cap(pc)]
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		// Window clamps an offset past the capacity to it, where no part
		// with a point in it can start.
		if at := base + int(min(offs[i], uint64(len(room)-base))); at < len(room) && &room[at] == &p[0] {
			if at != len(pc) {
				copy(room[len(pc):], p)
			}
			pc = room[:len(pc)+len(p)]
			continue
		}
		total := len(pc)
		for _, p := range parts[i:] {
			total += len(p)
		}
		out := append(make(PointCloud, 0, total), pc...)
		for _, p := range parts[i:] {
			out = append(out, p...)
		}
		return out
	}
	return pc
}
