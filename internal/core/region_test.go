package core

import (
	"context"
	"errors"
	"os"
	"sort"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
)

// regionBoxes are the query shapes a region decode must get right on a frame
// whose full decode is full: no point, a few, all (where the dense cube lies
// inside the box and nothing is filtered), nearly all (where it does not),
// the sensor's own position (a radial range from zero), one decoded point
// as a box of no volume, and a box with its corners swapped.
func regionBoxes(full geom.PointCloud) map[string]geom.AABB {
	xs, ys := make([]float64, len(full)), make([]float64, len(full))
	for i, p := range full {
		xs[i], ys[i] = p.X, p.Y
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	mid := full[len(full)/2]
	return map[string]geom.AABB{
		"empty":    {Min: geom.Point{X: 500, Y: 500, Z: 0}, Max: geom.Point{X: 600, Y: 600, Z: 1}},
		"lane":     laneBox,
		"whole":    {Min: geom.Point{X: -1e4, Y: -1e4, Z: -1e4}, Max: geom.Point{X: 1e4, Y: 1e4, Z: 1e4}},
		"most":     {Min: geom.Point{X: xs[len(xs)/20], Y: ys[len(ys)/20], Z: -1e4}, Max: geom.Point{X: 1e4, Y: 1e4, Z: 1e4}},
		"origin":   {Min: geom.Point{X: -6, Y: -6, Z: -3}, Max: geom.Point{X: 6, Y: 6, Z: 3}},
		"point":    {Min: mid, Max: mid},
		"inverted": {Min: laneBox.Max, Max: laneBox.Min},
		// What a polar group's window (internal/sparse) has to get right:
		// arcs of azimuth away from the lane box's, which straddles the seam
		// at θ = 0 — behind the sensor across θ = π, in one quadrant, along
		// the y axis, a sliver on the seam — and boxes with no width.
		"rear":      {Min: geom.Point{X: -25, Y: -5, Z: -3}, Max: geom.Point{X: -5, Y: 5, Z: 3}},
		"rear-left": {Min: geom.Point{X: -30, Y: 2, Z: -3}, Max: geom.Point{X: -3, Y: 20, Z: 3}},
		"side":      {Min: geom.Point{X: -5, Y: 5, Z: -3}, Max: geom.Point{X: 5, Y: 25, Z: 3}},
		"seam":      {Min: geom.Point{X: 3, Y: -0.05, Z: -3}, Max: geom.Point{X: 60, Y: 0.05, Z: 3}},
		"sheet":     {Min: geom.Point{X: mid.X, Y: -1e4, Z: -1e4}, Max: geom.Point{X: mid.X, Y: 1e4, Z: 1e4}},
	}
}

// TestDecompressRegion: over fresh frames and the checked-in frames of every
// container version, at one, two and four workers, a region decode returns
// the points of the full decode that lie in the box, in the full decode's
// order, whatever the shape of the box. And it fails closed where the full
// decode does: a limit on points, section bytes or the context refuses both
// or neither, for every box; the limits that meter work a box can skip
// (entropy symbols of a culled radial group, its shards and contexts, the
// memory of both) refuse the whole-frame box exactly when they refuse the
// full decode, and never refuse a smaller box that the full decode passes.
func TestDecompressRegion(t *testing.T) {
	inputs := map[string][]byte{}
	for _, kind := range []lidar.SceneKind{lidar.City, lidar.Road} {
		inputs[string(kind)], _ = defaultFrame(t, kind)
	}
	for _, file := range []string{"default", "shards8", "blockpack", "ctx"} { // v2, v3, v4, v5
		data, err := os.ReadFile("testdata/city-sector-" + file + ".dbgc")
		if err != nil {
			t.Fatal(err)
		}
		inputs[file] = data
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	refused := func(err error) bool {
		if err != nil && !errors.Is(err, ErrLimit) {
			t.Fatalf("a decode under limits fails with %v, not ErrLimit", err)
		}
		return err != nil
	}
	for name, data := range inputs {
		full, err := Decompress(data)
		if err != nil {
			t.Fatal(err)
		}
		boxes := regionBoxes(full)
		for _, procs := range []int{1, 2, 4} {
			partest.At(procs, func() {
				for boxName, box := range boxes {
					got, err := DecompressRegion(data, box)
					if err != nil {
						t.Fatalf("%s, %s box, GOMAXPROCS=%d: %v", name, boxName, procs, err)
					}
					var want geom.PointCloud
					for _, p := range full {
						if box.Contains(p) {
							want = append(want, p)
						}
					}
					if !cloudsEqual(got, want) {
						t.Fatalf("%s, %s box, GOMAXPROCS=%d: %d points, want the %d of the full decode in its order", name, boxName, procs, len(got), len(want))
					}
					if kept := float64(len(want)) / float64(len(full)); boxName == "most" && (kept < 0.85 || kept > 0.95) || boxName == "point" && len(want) == 0 {
						t.Fatalf("%s: the %s box keeps %d of %d points", name, boxName, len(want), len(full))
					}
				}
			})
		}

		// The point limit at its threshold and a dead context, and on the
		// checked-in sectors — every dialect, a thirtieth of a frame's decode
		// time — every limit field on a ladder from what refuses any frame
		// to what passes this one.
		limits := []DecodeLimits{{MaxPoints: int64(len(full))}, {MaxPoints: int64(len(full)) - 1}, {Ctx: cancelled}}
		for v := int64(1); v <= 1<<26 && len(full) < 10000; v <<= 5 {
			limits = append(limits, DecodeLimits{MaxPoints: v}, DecodeLimits{MaxNodes: v}, DecodeLimits{MaxSectionBytes: v},
				DecodeLimits{MemBudget: v}, DecodeLimits{MaxShards: v}, DecodeLimits{MaxContexts: v})
		}
		for _, lim := range limits {
			dopts := DecompressOptions{Limits: lim}
			_, err := DecompressWith(data, dopts)
			fullRefused := refused(err)
			exact := lim.MaxPoints != 0 || lim.MaxSectionBytes != 0 || lim.Ctx != nil
			for boxName, box := range boxes {
				_, err := DecompressRegionWith(data, box, dopts)
				if got := refused(err); got != fullRefused && (exact || boxName == "whole" || got) {
					t.Fatalf("%s, %s box, %+v: region decode refused = %v, full decode refused = %v", name, boxName, lim, got, fullRefused)
				}
			}
		}
	}
}

func TestDecompressRegionGarbage(t *testing.T) {
	box := geom.AABB{Min: geom.Point{X: -1, Y: -1, Z: -1}, Max: geom.Point{X: 1, Y: 1, Z: 1}}
	if _, err := DecompressRegion(nil, box); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := DecompressRegion([]byte("DBGC\x01xx"), box); err == nil {
		t.Fatal("truncated accepted")
	}
}

// TestDecompressRegionLimits: the region decode fails closed exactly where
// the full decode does. For every dialect, whatever limits make
// DecompressWith refuse a frame make DecompressRegionWith refuse it with an
// ErrLimit-wrapping error, every truncation fails cleanly under limits, and
// generous limits change nothing.
func TestDecompressRegionLimits(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	everything := geom.AABB{Min: geom.Point{X: -1e3, Y: -1e3, Z: -1e3}, Max: geom.Point{X: 1e3, Y: 1e3, Z: 1e3}}
	pc := frame(t, lidar.City)[:4000]
	for name, set := range map[string]func(*Options){
		"v2":          func(o *Options) { o.ContextModel = false },
		"v3":          func(o *Options) { o.ContextModel, o.Shards = false, 8 },
		"v4":          func(o *Options) { o.ContextModel, o.BlockPack = false, true },
		"v5":          func(*Options) {},
		"octree-outl": func(o *Options) { o.OutlierMode = OutlierOctree },
		"raw-outl":    func(o *Options) { o.OutlierMode = OutlierNone },
	} {
		opts := DefaultOptions(0.02)
		set(&opts)
		data, _, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, lim := range []DecodeLimits{
			{MaxPoints: 16}, {MaxPoints: 3000}, {MaxNodes: 64}, {MaxSectionBytes: 8}, {MemBudget: 64}, {MemBudget: 90000}, {Ctx: cancelled},
		} {
			dopts := DecompressOptions{Limits: lim}
			if _, err := DecompressWith(data, dopts); !errors.Is(err, ErrLimit) {
				t.Fatalf("%s %+v: full decode: want ErrLimit, got %v", name, lim, err)
			}
			for _, box := range []geom.AABB{laneBox, everything} {
				if _, err := DecompressRegionWith(data, box, dopts); !errors.Is(err, ErrLimit) {
					t.Fatalf("%s %+v: region decode: want ErrLimit, got %v", name, lim, err)
				}
			}
		}
		want, err := DecompressRegion(data, laneBox)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressRegionWith(data, laneBox, DecompressOptions{Limits: DefaultDecodeLimits()})
		if err != nil || !cloudsEqual(want, got) {
			t.Fatalf("%s: region decode under DefaultDecodeLimits differs from unlimited (%v)", name, err)
		}
		lim := DecompressOptions{Limits: DecodeLimits{MaxPoints: 1 << 20, MaxNodes: 1 << 24, MemBudget: 256 << 20}}
		for i := 0; i < len(data); i++ {
			if _, err := DecompressRegionWith(data[:i], laneBox, lim); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes region-decoded without error", name, i, len(data))
			}
		}
	}
}

// TestDecompressRegionCoincidentBomb: 200k coincident points compress to a
// frame of about a hundred bytes whose single octree leaf count says 200k.
// A query box around the point materializes all of them, so the limits that
// stop the full decode must stop the query.
func TestDecompressRegionCoincidentBomb(t *testing.T) {
	pc := make(geom.PointCloud, 200000)
	for i := range pc {
		pc[i] = geom.Point{X: 10, Y: 1, Z: 0.5}
	}
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 400 {
		t.Fatalf("bomb frame is %d bytes", len(data))
	}
	if got, err := DecompressRegion(data, laneBox); err != nil || len(got) != len(pc) {
		t.Fatalf("unlimited region decode: %d points, %v", len(got), err)
	}
	for _, lim := range []DecodeLimits{{MaxPoints: 100000}, {MemBudget: 1 << 20}} {
		dopts := DecompressOptions{Limits: lim}
		if _, err := DecompressWith(data, dopts); !errors.Is(err, ErrLimit) {
			t.Fatalf("%+v: full decode: want ErrLimit, got %v", lim, err)
		}
		if _, err := DecompressRegionWith(data, laneBox, dopts); !errors.Is(err, ErrLimit) {
			t.Fatalf("%+v: region decode: want ErrLimit, got %v", lim, err)
		}
	}
}
