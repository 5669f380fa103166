package core

import "dbgc/internal/geom"

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
	return decompress(data, &region, opts)
}
