package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dbgc"
	"dbgc/internal/lidar"
)

// q is the error bound of every workload: the paper's 2 cm.
const q = 0.02

// laneBox is the "lane ahead" region of every region decode and region
// query: about 9% of a frame's points.
var laneBox = dbgc.AABB{Min: dbgc.Point{X: 5, Y: -5, Z: -3}, Max: dbgc.Point{X: 25, Y: 5, Z: 3}}

// wholeBox makes a region query return the whole frame.
var wholeBox = dbgc.AABB{Min: dbgc.Point{X: -1e4, Y: -1e4, Z: -1e4}, Max: dbgc.Point{X: 1e4, Y: 1e4, Z: 1e4}}

// frame is one simulated sensor capture.
type frame struct {
	kind   lidar.SceneKind
	layout int64
	pc     dbgc.PointCloud
}

// makeFrames captures layouts frames of each kind. The scene layouts are
// fixed (layout seeds 1..layouts, so kitti-city layout 1 is the frame of
// every legacy BENCH_*.json number); the workload seed drives the sensor's
// noise, jitter and dropout, so another seed moves every point of every
// frame while the workload keeps its dense/sparse character. simMS, when
// non-nil, collects the time of each NewScene+Simulate.
func makeFrames(kinds []lidar.SceneKind, layouts int, seed int64, simMS *[]float64) ([]frame, error) {
	var out []frame
	for _, kind := range kinds {
		for l := int64(1); l <= int64(layouts); l++ {
			t := time.Now()
			scene, err := lidar.NewScene(kind, l)
			if err != nil {
				return nil, fmt.Errorf("scene %s/%d: %w", kind, l, err)
			}
			pc := lidar.HDL64E().Simulate(scene, seed*1009+l)
			if simMS != nil {
				*simMS = append(*simMS, ms(time.Since(t)))
			}
			out = append(out, frame{kind: kind, layout: l, pc: pc})
		}
	}
	return out, nil
}

// rotation returns the order in which a run visits its n inputs: a
// seed-driven permutation, repeated. Every input is visited once per pass,
// so repeats of one input are spread evenly over the run.
func rotation(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// boxFilter returns the points of pc inside box.
func boxFilter(pc dbgc.PointCloud, box dbgc.AABB) dbgc.PointCloud {
	var out dbgc.PointCloud
	for _, p := range pc {
		if box.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// sortedCopy returns the points of pc in lexicographic order.
func sortedCopy(pc dbgc.PointCloud) dbgc.PointCloud {
	s := append(dbgc.PointCloud(nil), pc...)
	slices.SortFunc(s, func(a, b dbgc.Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Y, b.Y); c != 0 {
			return c
		}
		return cmp.Compare(a.Z, b.Z)
	})
	return s
}

// sameMultiset reports whether a and b hold the same points with the same
// multiplicities, in any order. Decoders are deterministic, so the clouds
// usually agree in order too and nothing needs sorting.
func sameMultiset(a, b dbgc.PointCloud) bool {
	if len(a) != len(b) {
		return false
	}
	return slices.Equal(a, b) || slices.Equal(sortedCopy(a), sortedCopy(b))
}

// binRoundTrip maps a cloud through the .bin layout query results travel
// in (float32 coordinates), so a parsed result can be compared exactly.
func binRoundTrip(pc dbgc.PointCloud) (dbgc.PointCloud, error) {
	var buf bytes.Buffer
	if err := lidar.WriteBin(&buf, pc); err != nil {
		return nil, err
	}
	return lidar.ReadBin(&buf)
}
