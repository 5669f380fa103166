package octree

import "dbgc/internal/geom"

// DecodeRegion reconstructs only the points inside the query box from a
// stream produced by Encode, without materializing the rest of the cloud.
// The occupancy stream must still be entropy-decoded sequentially (the
// arithmetic coder is adaptive), but subtrees outside the region are
// dropped as soon as their cells separate from the box, so no point
// outside the region is ever built.
func DecodeRegion(data []byte, region geom.AABB) (geom.PointCloud, error) {
	return DecodeRegionWith(data, region, DecodeOptions{})
}

// DecodeRegionWith is DecodeRegion with explicit options (the occupancy
// method marker, resource budget).
func DecodeRegionWith(data []byte, region geom.AABB, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeRegionInto(geom.PointCloud{}, data, &region, opts)
}

// PointCountIn is PointCount for a decode with region, as far as the header
// can tell: every declared point when the region is nil or contains the
// stream's cube, and none when the box cuts the cube — how many leaves it
// keeps is known only once the tree has been replayed, and that decode
// sizes its own result. A header that does not parse declares none.
func PointCountIn(data []byte, region *geom.AABB) uint64 {
	st, err := parse(data, DecodeOptions{})
	if err != nil || region != nil && !cubeInside(st.min, st.side, *region) {
		return 0
	}
	return st.n
}

// cubeInside reports whether the cube (min corner, side) lies in the box,
// so that the box keeps every leaf center of a tree over the cube.
func cubeInside(min geom.Point, side float64, b geom.AABB) bool {
	return b.Contains(min) && b.Contains(min.Add(geom.Point{X: side, Y: side, Z: side}))
}

// cellIntersects reports whether the cube cell (center, half side) overlaps
// the box.
func cellIntersects(center geom.Point, half float64, b geom.AABB) bool {
	return center.X+half >= b.Min.X && center.X-half <= b.Max.X &&
		center.Y+half >= b.Min.Y && center.Y-half <= b.Max.Y &&
		center.Z+half >= b.Min.Z && center.Z-half <= b.Max.Z
}
