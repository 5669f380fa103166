package core

import (
	"fmt"
	"time"

	"dbgc/internal/geom"
)

// StageTimes holds the durations of a frame's stages under the names
// BENCHMARK.json gives them as per-layer metrics ("cluster.split",
// "octree.encode", ...).
type StageTimes map[string]time.Duration

// set records d under name; a nil StageTimes records nothing, which is how
// Compress and Decompress run the code the replays time.
func (s StageTimes) set(name string, d time.Duration) {
	if s != nil {
		s[name] = d
	}
}

// ReplayStages compresses pc under opts as Compress does, except that the
// stages which Compress runs side by side run one after another, and
// returns how long each took: "cluster.split", then "sparse.encode", then
// "octree.encode", then "outlier.encode", which together are the call less
// its gathers, container framing and mapping; and "polyline.organize", the
// part of "sparse.encode" spent converting and organizing points (summed
// over the radial groups, so at more than one processor it is CPU time, not
// a span). A stage still uses the processors there are.
func ReplayStages(pc geom.PointCloud, opts Options) (StageTimes, error) {
	clock := StageTimes{}
	var e Encoder
	if _, _, err := e.compressOnce(pc, opts, clock); err != nil {
		return nil, err
	}
	return clock, nil
}

// ReplayDecode decodes the frame data twice as Decompress and
// DecompressRegion(data, box) do, except that the three sections decode one
// after another, and returns how long each took: "octree.decode",
// "sparse.decode" and "outlier.decode" for the whole frame, "octree.region",
// "sparse.region" and "outlier.region" under the box. Each triple is its
// call less the container parse, the section CRCs and the join.
func ReplayDecode(data []byte, box geom.AABB) (StageTimes, error) {
	c, err := parseContainer(data, nil)
	if err != nil {
		return nil, err
	}
	clock := StageTimes{}
	for _, region := range []*geom.AABB{nil, &box} {
		_, _, errs := decodeSections(c, nil, region, clock)
		for id, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", SectionID(id), err)
			}
		}
	}
	return clock, nil
}
