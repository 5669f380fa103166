package core

import (
	"bytes"
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// TestBlockPackRoundTrip is the v4 dialect contract: for every shard count,
// BlockPack writes a container that carries version 4 — larger than the
// legacy one on LiDAR frames, and written all the same — and decodes exactly
// to what the legacy container does.
func TestBlockPackRoundTrip(t *testing.T) {
	pc := frame(t, lidar.City)
	legacyData, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(legacyData)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := paperOptions(0.02)
			opts.Shards = shards
			opts.BlockPack = true
			serial, _, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if serial[len(magic)] != version4 {
				t.Fatalf("blockpacked container has version %d, want %d", serial[len(magic)], version4)
			}
			got, err := Decompress(serial)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !cloudsEqual(want, got) {
				t.Fatal("decode differs from legacy decode")
			}
		})
	}
}

// TestBlockPackOffByteIdentical pins the compatibility contract of the
// default: BlockPack=false output is byte-identical to the v2 (unsharded)
// and v3 (sharded) containers of previous releases.
func TestBlockPackOffByteIdentical(t *testing.T) {
	pc := frame(t, lidar.Campus)
	for _, shards := range []int{1, 4} {
		opts := paperOptions(0.02)
		opts.Shards = shards
		ref, _, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.BlockPack = false
		off, _, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, off) {
			t.Fatalf("shards=%d: BlockPack=false changed the container bytes", shards)
		}
	}
}

// TestBlockPackWithLimits decodes a v4 frame under the production decode
// limits; real frames must pass and tiny budgets must fail cleanly.
func TestBlockPackWithLimits(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := paperOptions(0.02)
	opts.BlockPack = true
	opts.Shards = 4
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()}); err != nil {
		t.Fatalf("default limits rejected a real v4 frame: %v", err)
	}
	tiny := DecodeLimits{MaxNodes: 64}
	if _, err := DecompressWith(data, DecompressOptions{Limits: tiny}); err == nil {
		t.Fatal("a 64-node budget decoded a full v4 frame")
	}
}

// TestBlockPackRegion checks that the region query path handles the v4
// dialect: the blockpacked frame yields the same region points as legacy.
func TestBlockPackRegion(t *testing.T) {
	pc := frame(t, lidar.City)
	legacy, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	opts := paperOptions(0.02)
	opts.BlockPack = true
	packed, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.AABB{Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}
	want, err := DecompressRegion(legacy, region)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressRegion(packed, region)
	if err != nil {
		t.Fatal(err)
	}
	if !cloudsEqual(want, got) {
		t.Fatalf("v4 region decode returned %d points, legacy %d (or differing points)", len(got), len(want))
	}
}

// TestBlockPackPartialSalvage damages one sparse radial group of a v4 frame
// and checks that the group-CRC salvage of the v3 dialect still works: the
// other groups and sections survive.
func TestBlockPackPartialSalvage(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := paperOptions(0.02)
	opts.BlockPack = true
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep inside the sparse section (the middle of the frame).
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xff
	got, reports, err := DecompressPartial(mut, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode of damaged v4 frame: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("nothing salvaged from a single-byte-damaged v4 frame")
	}
	if len(got) >= len(intact) {
		t.Fatalf("salvaged %d points from a damaged frame, intact frame has %d", len(got), len(intact))
	}
	damaged := false
	for _, r := range reports {
		if r.Err != nil {
			damaged = true
		}
	}
	if !damaged {
		t.Fatal("no section reported the damage")
	}
}
