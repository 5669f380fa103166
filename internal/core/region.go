package core

import (
	"fmt"
	"math"

	"dbgc/internal/geom"
	"dbgc/internal/octree"
	"dbgc/internal/par"
	"dbgc/internal/sparse"
)

// DecompressRegion reconstructs only the points inside the query box from
// a compressed frame — the paper's server can store B directly (§3.1), and
// range queries are the natural access path for a stored frame. The dense
// octree prunes subtrees outside the region; sparse radial groups whose
// radial interval cannot reach the box are skipped entirely; everything
// else decodes normally and filters.
func DecompressRegion(data []byte, region geom.AABB) (geom.PointCloud, error) {
	return DecompressRegionWith(data, region, DecompressOptions{})
}

// DecompressRegionWith is DecompressRegion with explicit options. Limits
// are charged as DecompressWith charges them — each section that decodes
// pays for every point it declares, inside the box or not — so a frame the
// one refuses, the other refuses too.
func DecompressRegionWith(data []byte, region geom.AABB, opts DecompressOptions) (geom.PointCloud, error) {
	b := newBudget(opts.Limits)
	c, err := parseContainer(data, b)
	if err != nil {
		return nil, err
	}
	for id := range c.sec {
		if err := c.sec[id].verify(SectionID(id)); err != nil {
			return nil, err
		}
	}

	octOpts := c.octreeOptions(b)
	// Sparse groups: [rLo, rHi] of the box from the sensor decides which
	// groups can contribute.
	rLo, rHi := regionRadialRange(region)
	var pts [numSections]geom.PointCloud
	var errs [numSections]error
	par.Do(func() {
		pts[SectionDense], errs[SectionDense] = octree.DecodeRegionWith(c.sec[SectionDense].payload, region, octOpts)
	}, func() {
		pts[SectionSparse], errs[SectionSparse] = sparse.DecodeRadialRange(c.sec[SectionSparse].payload, rLo, rHi, sparse.DecodeOptions{Budget: b})
	}, func() {
		pts[SectionOutlier], errs[SectionOutlier] = decodeOutliers(nil, c.sec[SectionOutlier].payload, c.mode, octOpts)
	})
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", SectionID(id), err)
		}
	}
	// The sparse and outlier buffers are this call's own: filter them in
	// place, then make room beside the dense points for the survivors, once
	// and exactly.
	rest := pts[SectionSparse:]
	kept := 0
	for id, sec := range rest {
		in := sec[:0]
		for _, p := range sec {
			if region.Contains(p) {
				in = append(in, p)
			}
		}
		rest[id] = in
		kept += len(in)
	}
	out := pts[SectionDense]
	if kept > cap(out)-len(out) {
		out = append(make(geom.PointCloud, 0, len(out)+kept), out...)
	}
	for _, in := range rest {
		out = append(out, in...)
	}
	return out, nil
}

// regionRadialRange returns the radial interval of the box as seen from
// the sensor at the origin.
func regionRadialRange(b geom.AABB) (lo, hi float64) {
	// Nearest point of the box to the origin per axis.
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	nearest := geom.Point{
		X: clamp(0, b.Min.X, b.Max.X),
		Y: clamp(0, b.Min.Y, b.Max.Y),
		Z: clamp(0, b.Min.Z, b.Max.Z),
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
