package core

import (
	"errors"
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// TestContextModelEquivalence is the v5 contract: a ContextModel frame
// decodes to exactly the points of the plain frame — every one of them, in
// the forward-first order of the v5 sparse stream, so compared as
// multisets — the container carries version 5 with the context dialect
// byte, and the per-stream size guard keeps the frame from ever growing
// past the marker overhead. The rows that ask for a shard count or
// blockpack are the retired dialects' and are refused.
func TestContextModelEquivalence(t *testing.T) {
	pc := frame(t, lidar.City)
	plainData, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(plainData)
	if err != nil {
		t.Fatal(err)
	}
	// The sharded and blockpacked dialects are retired: with the context
	// model or without, options that ask for one are refused.
	for _, cfg := range []struct {
		shards    int
		blockpack bool
	}{{4, false}, {0, true}, {4, true}} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=%v", cfg.shards, cfg.blockpack), func(t *testing.T) {
			opts := paperOptions(0.02)
			opts.Shards, opts.BlockPack = cfg.shards, cfg.blockpack
			for _, ctx := range []bool{false, true} {
				opts.ContextModel = ctx
				if out, stats, err := Compress(pc, opts); !errors.Is(err, ErrRetiredDialect) || out != nil || stats != nil {
					t.Errorf("ContextModel %v: %d bytes, %v; want ErrRetiredDialect", ctx, len(out), err)
				}
			}
		})
	}
	t.Run("shards=0/blockpack=false", func(t *testing.T) {
		opts := paperOptions(0.02)
		opts.ContextModel = true
		serial, stats, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if serial[len(magic)] != version5 {
			t.Fatalf("context container has version %d, want %d", serial[len(magic)], version5)
		}
		if serial[len(magic)+1] != dialectContext {
			t.Fatalf("dialect byte %#x, want %#x", serial[len(magic)+1], dialectContext)
		}
		// The guard bound: the v5 frame carries one dialect byte plus at
		// most one method marker per guarded stream over the paper's frame.
		if len(serial) > len(plainData)+16 {
			t.Fatalf("context frame %dB exceeds plain %dB + markers", len(serial), len(plainData))
		}
		t.Logf("frame bytes: plain %d, ctx %d (ratio %.2f)", len(plainData), len(serial), stats.CompressionRatio())
		if len(stats.Mapping) != len(pc) {
			t.Fatalf("mapping has %d entries, want %d", len(stats.Mapping), len(pc))
		}
		got, err := Decompress(serial)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameMultiset(want, got) {
			t.Fatal("decode holds other points than the legacy decode")
		}
		lay, err := Inspect(serial)
		if err != nil {
			t.Fatal(err)
		}
		if !lay.ContextModeled || lay.ShardedStreams || lay.BlockPacked {
			t.Fatalf("Inspect reports ctx=%v sharded=%v blockpack=%v", lay.ContextModeled, lay.ShardedStreams, lay.BlockPacked)
		}
	})
}

// TestContextModelUnderLimits: a v5 frame decodes under the default
// production limits, and a MaxContexts cap below the stream's context count
// rejects the frame up front instead of building the tables.
func TestContextModelUnderLimits(t *testing.T) {
	data, _ := defaultFrame(t, lidar.City)
	if _, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()}); err != nil {
		t.Fatalf("default limits reject a real v5 frame: %v", err)
	}
	lim := DefaultDecodeLimits()
	lim.MaxContexts = 1
	if _, err := DecompressWith(data, DecompressOptions{Limits: lim}); err == nil {
		t.Fatal("MaxContexts=1 accepted a context-modeled frame")
	}
}

// TestContextModelCorrupt: the v5 envelope rejects unknown dialect bits and
// truncations anywhere in the frame.
func TestContextModelCorrupt(t *testing.T) {
	pc := frame(t, lidar.Residential)
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(magic)+1] = 0x80
	if _, err := Decompress(bad); err == nil {
		t.Fatal("unknown dialect bits accepted")
	}
	for cut := 0; cut < len(data); cut += len(data)/97 + 1 {
		if _, err := Decompress(data[:cut]); err == nil {
			t.Fatalf("truncated at %d: want error", cut)
		}
	}
}

// TestContextModelRegion: region queries work on v5 frames.
func TestContextModelRegion(t *testing.T) {
	data, _ := defaultFrame(t, lidar.City)
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.AABB{Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}
	got, err := DecompressRegion(data, region)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, p := range full {
		if region.Contains(p) {
			wantN++
		}
	}
	if len(got) != wantN {
		t.Fatalf("region decode returned %d points, filter says %d", len(got), wantN)
	}
}

// TestContextModelPartialKeepsNoUnverifiedPoints: the sparse groups of a
// ContextModel frame carry no CRC of their own, so a sparse section that
// fails the section CRC has nothing DecompressPartial could check a group
// against: it must come back empty, never as points decoded from the
// damaged bytes.
func TestContextModelPartialKeepsNoUnverifiedPoints(t *testing.T) {
	data, _, err := Compress(frame(t, lidar.City), DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload // aliases data
	for k := 0; k < 40; k++ {
		at, bit := (2*k+1)*len(sp)/80, byte(1)<<(k%8)
		sp[at] ^= bit
		_, reports, err := DecompressPartial(data, DecompressOptions{})
		sp[at] ^= bit
		if err != nil {
			t.Fatalf("flip at %d: %v", at, err)
		}
		if r := reports[SectionSparse]; r.Err == nil || r.Points != 0 {
			t.Errorf("flip at %d: %d points kept, %v; want none and the damage", at, r.Points, r.Err)
		}
	}
}
