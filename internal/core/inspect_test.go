package core

import (
	"testing"

	"dbgc/internal/lidar"
)

func TestInspect(t *testing.T) {
	pc := frame(t, lidar.Road)[:30000]
	opts := paperOptions(0.02)
	data, stats, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != version2 || l.ContextModeled || l.ShardedStreams || l.BlockPacked {
		t.Fatalf("version %d, context %v, sharded %v, blockpacked %v", l.Version, l.ContextModeled, l.ShardedStreams, l.BlockPacked)
	}
	if l.BytesTotal != stats.BytesTotal || l.BytesDense != stats.BytesDense ||
		l.BytesSparse != stats.BytesSparse || l.BytesOutlier != stats.BytesOutlier {
		t.Fatalf("layout bytes %+v disagree with stats %+v", l, stats)
	}
	if l.PointsDense != stats.NumDense {
		t.Fatalf("PointsDense %d, want %d", l.PointsDense, stats.NumDense)
	}
	if l.PointsOutlier != stats.NumOutliers {
		t.Fatalf("PointsOutlier %d, want %d", l.PointsOutlier, stats.NumOutliers)
	}
	if l.Groups != opts.Groups && l.Groups != 1 {
		t.Fatalf("Groups %d, want %d", l.Groups, opts.Groups)
	}
	if l.OutlierMode != OutlierQuadtree {
		t.Fatalf("OutlierMode %d", l.OutlierMode)
	}
}

func TestInspectGarbage(t *testing.T) {
	if _, err := Inspect(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Inspect([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
}
