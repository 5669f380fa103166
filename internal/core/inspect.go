package core

import (
	"dbgc/internal/octree"
	"dbgc/internal/sparse"
)

// Layout describes a DBGC bit sequence's structure (Figure 8) without
// fully decoding it, for tooling and diagnostics.
type Layout struct {
	Version      byte
	OutlierMode  OutlierMode
	BytesTotal   int
	BytesDense   int
	BytesSparse  int
	BytesOutlier int
	// ShardedStreams reports the v3 dialect: high-volume entropy streams
	// split into independently coded shards, sparse groups CRC-prefixed.
	ShardedStreams bool
	// BlockPacked reports the v4 dialect: integer hot-path streams coded
	// with the blockpack codec inside the shard framing.
	BlockPacked bool
	// ContextModeled reports the v5 dialect, what Options.ContextModel (the
	// default) writes: every sparse angular stream names its coder in its
	// group's methods byte, and the occupancy stream starts with a method
	// marker. On v5 frames all three dialect flags come from the dialect
	// byte rather than the version number.
	ContextModeled bool
	// Groups is the number of radial point groups in the sparse section.
	Groups int
	// PointsDense and PointsOutlier are the point counts the sections'
	// headers declare.
	PointsDense   int
	PointsOutlier int
}

// Inspect parses the layout of a compressed frame.
func Inspect(data []byte) (Layout, error) {
	var l Layout
	l.BytesTotal = len(data)
	c, err := parseContainer(data, nil)
	l.Version = c.version
	if err != nil {
		return l, err
	}
	l.OutlierMode = c.mode
	d := c.streams()
	l.ShardedStreams, l.BlockPacked, l.ContextModeled = d.Sharded, d.BlockPack, d.Context

	l.BytesDense = len(c.sec[SectionDense].payload)
	l.PointsDense = int(octree.PointCount(c.sec[SectionDense].payload))
	l.BytesSparse = len(c.sec[SectionSparse].payload)
	l.Groups = sparse.GroupCount(c.sec[SectionSparse].payload)
	l.BytesOutlier = len(c.sec[SectionOutlier].payload)
	l.PointsOutlier = int(outlierCount(c.sec[SectionOutlier].payload, c.mode))
	return l, nil
}
