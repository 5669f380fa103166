package sparse

import (
	"math"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
)

// DecodeRegionInto is DecodeInto keeping only the points inside region (all
// of them when it is nil). Groups are radial shells (each records its
// r_max; its lower edge is the previous group's r_max), so a bounding-box
// query skips, without entropy-decoding them, the groups whose shell cannot
// reach the box — most groups of a large frame — and the groups it opens
// test each point against the box as they convert it to Cartesian, so a
// point outside is never written. Cartesian-mode streams carry no radial
// structure and decode fully. The groups that decode are charged to
// opts.Budget as DecodeWith charges them, and a skipped group still pays
// for the points its header declares, so the point limit that refuses a
// frame's full decode refuses its every query. Given room for
// PointCountIn(data, region) points, every point kept is written where the
// decode can close the result up in place.
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
