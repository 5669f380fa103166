package sparse

import (
	"encoding/binary"
	"math"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
)

// DecodeRadialRange decodes only the radial groups whose interval can
// intersect [rLo, rHi], skipping the others without entropy-decoding them.
// Groups are radial shells (each records its r_max; its lower edge is the
// previous group's r_max), so a bounding-box query culls most groups of a
// large frame. Cartesian-mode streams carry no radial structure and decode
// fully. The groups that decode are charged to opts.Budget as DecodeWith
// charges them, and a skipped group still pays for the points its header
// declares, so the point limit that refuses a frame's full decode refuses
// its every query.
func DecodeRadialRange(data []byte, rLo, rHi float64, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	fr, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	groups := fr.groups
	if !fr.gf.cartesian {
		groups = nil
		prevRMax := 0.0
		for _, g := range fr.groups {
			// A group too short for its header is kept, for decodeGroups
			// to refuse.
			if body := fr.groupBody(g); len(body) >= 8 {
				rMax := math.Float64frombits(binary.LittleEndian.Uint64(body))
				lo := prevRMax
				prevRMax = rMax
				// Quantization can nudge a point just past its group edge.
				slack := 2 * fr.q
				if rMax+slack < rLo || lo-slack > rHi {
					// Shell disjoint from the query interval.
					if err := opts.Budget.Points(int64(fr.groupPoints(g))); err != nil {
						return nil, err
					}
					continue
				}
			}
			groups = append(groups, g)
		}
	}
	return fr.decodeGroups(geom.PointCloud{}, groups, opts)
}
