package core

import (
	"context"
	"errors"
	"sort"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

func TestDecompressRegion(t *testing.T) {
	pc := frame(t, lidar.City)
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	regions := []geom.AABB{
		{Min: geom.Point{X: -10, Y: -10, Z: -3}, Max: geom.Point{X: 10, Y: 10, Z: 3}},
		{Min: geom.Point{X: 20, Y: 20, Z: -3}, Max: geom.Point{X: 60, Y: 60, Z: 10}},
		{Min: geom.Point{X: 500, Y: 500, Z: 0}, Max: geom.Point{X: 600, Y: 600, Z: 1}}, // empty
	}
	for ri, region := range regions {
		got, err := DecompressRegion(data, region)
		if err != nil {
			t.Fatalf("region %d: %v", ri, err)
		}
		var want geom.PointCloud
		for _, p := range full {
			if region.Contains(p) {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("region %d: %d points, want %d", ri, len(got), len(want))
		}
		sortCloud(got)
		sortCloud(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("region %d: point %d = %v, want %v", ri, i, got[i], want[i])
			}
		}
		t.Logf("region %d: %d of %d points", ri, len(got), len(full))
	}
}

func sortCloud(pc geom.PointCloud) {
	sort.Slice(pc, func(i, j int) bool {
		if pc[i].X != pc[j].X {
			return pc[i].X < pc[j].X
		}
		if pc[i].Y != pc[j].Y {
			return pc[i].Y < pc[j].Y
		}
		return pc[i].Z < pc[j].Z
	})
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
		"v2":          func(*Options) {},
		"v3":          func(o *Options) { o.Shards = 8 },
		"v4":          func(o *Options) { o.BlockPackForce = true },
		"v5":          func(o *Options) { o.ContextModel = true },
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
