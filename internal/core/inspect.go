package core

import (
	"dbgc/internal/varint"
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
	// ContextModeled reports the v5 dialect: occupancy and angular streams
	// may be coded under the ctxmodel context banks, per-stream size
	// guarded. On v5 frames all three dialect flags come from the dialect
	// byte rather than the version number.
	ContextModeled bool
	// Groups is the number of radial point groups in the sparse section.
	Groups int
	// PointsDense, PointsSparse, PointsOutlier are header point counts
	// (dense and outlier sections record them directly; sparse requires
	// full decode and is reported as -1).
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
	l.ShardedStreams, l.BlockPacked, l.ContextModeled = c.flags()

	dense := c.sec[SectionDense].payload
	l.BytesDense = len(dense)
	if n, _, err := varint.Uint(dense); err == nil {
		l.PointsDense = int(n)
	}
	sparse := c.sec[SectionSparse].payload
	l.BytesSparse = len(sparse)
	// Sparse section: flags varint, q float64, group count varint.
	if _, used, err := varint.Uint(sparse); err == nil {
		rest := sparse[used:]
		if len(rest) >= 8 {
			if g, _, err := varint.Uint(rest[8:]); err == nil {
				l.Groups = int(g)
			}
		}
	}
	outlierData := c.sec[SectionOutlier].payload
	l.BytesOutlier = len(outlierData)
	if l.OutlierMode == OutlierNone || l.OutlierMode == OutlierOctree {
		if n, _, err := varint.Uint(outlierData); err == nil {
			l.PointsOutlier = int(n)
		}
	} else if len(outlierData) > 8 {
		// Quadtree outlier section: q (float64), quadtree stream length
		// varint, then the quadtree stream whose first varint is the
		// point count.
		rest := outlierData[8:]
		if _, used, err := varint.Uint(rest); err == nil {
			if n, _, err := varint.Uint(rest[used:]); err == nil {
				l.PointsOutlier = int(n)
			}
		}
	}
	return l, nil
}
