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

// DecodeRegionWith is DecodeRegion with explicit options (sharded streams,
// parallel shard decode, resource budget). The budget is charged as a full
// decode charges it, declared point count included, so the two refuse the
// same streams.
func DecodeRegionWith(data []byte, region geom.AABB, opts DecodeOptions) (geom.PointCloud, error) {
	return decode(geom.PointCloud{}, data, opts, &region)
}

// cellIntersects reports whether the cube cell (center, half side) overlaps
// the box.
func cellIntersects(center geom.Point, half float64, b geom.AABB) bool {
	return center.X+half >= b.Min.X && center.X-half <= b.Max.X &&
		center.Y+half >= b.Min.Y && center.Y-half <= b.Max.Y &&
		center.Z+half >= b.Min.Z && center.Z-half <= b.Max.Z
}
