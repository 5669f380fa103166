package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/varint"
)

// TestShardedEquivalence is the shard-count equivalence contract: for every
// shard count the decoded points equal the legacy (unsharded) decode
// exactly. The compressed size must stay within
// ±0.5% of the legacy container.
func TestShardedEquivalence(t *testing.T) {
	pc := frame(t, lidar.City)
	legacyOpts := paperOptions(0.02)
	legacyData, _, err := Compress(pc, legacyOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(legacyData)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := paperOptions(0.02)
			opts.Shards = shards
			serial, stats, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if shards > 1 && serial[len(magic)] != version3 {
				t.Fatalf("sharded container has version %d, want %d", serial[len(magic)], version3)
			}
			if drift := float64(len(serial))/float64(len(legacyData)) - 1; drift > 0.005 || drift < -0.005 {
				t.Fatalf("sharded container size drifts %.3f%% from legacy (%d vs %d bytes)",
					drift*100, len(serial), len(legacyData))
			}
			if len(stats.Mapping) != len(pc) {
				t.Fatalf("mapping has %d entries, want %d", len(stats.Mapping), len(pc))
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

// TestShardsOneByteIdentical pins the compatibility contract: Shards <= 1
// keeps the exact v2 container of previous releases, byte for byte.
func TestShardsOneByteIdentical(t *testing.T) {
	pc := frame(t, lidar.Campus)
	legacy, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	one := paperOptions(0.02)
	one.Shards = 1
	oneData, _, err := Compress(pc, one)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, oneData) {
		t.Fatal("Shards=1 container differs from the legacy container")
	}
	if oneData[len(magic)] != version2 {
		t.Fatalf("Shards=1 emits version %d, want %d", oneData[len(magic)], version2)
	}
}

// TestShardedDecodeUnderLimits: a sharded frame decodes under the default
// production limits, and a shard cap below the streams' effective shard
// count rejects the frame instead of spawning the fan-out.
func TestShardedDecodeUnderLimits(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := paperOptions(0.02)
	opts.Shards = 8
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()}); err != nil {
		t.Fatalf("decode under DefaultDecodeLimits: %v", err)
	}
	lim := DecodeLimits{MaxShards: 1}
	if _, err := DecompressWith(data, DecompressOptions{Limits: lim}); err == nil {
		t.Fatal("MaxShards=1 against an 8-shard frame: expected error")
	} else if !errors.Is(err, ErrLimit) && !errors.Is(err, ErrCorrupt) {
		// The cap error must be classifiable, not a bare string.
		t.Fatalf("shard-cap rejection has unexpected class: %v", err)
	}
}

// TestShardedPartialSectionRecovery corrupts the dense section of a v3
// frame and checks the other sections still decode via DecompressPartial.
func TestShardedPartialSectionRecovery(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := paperOptions(0.02)
	opts.Shards = 4
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	dp := c.sec[SectionDense].payload
	dp[len(dp)/2] ^= 0xff

	part, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode rejected the whole frame: %v", err)
	}
	if reports[SectionDense].Err == nil {
		t.Fatal("dense damage not reported")
	}
	if reports[SectionSparse].Err != nil || reports[SectionOutlier].Err != nil {
		t.Fatalf("intact sections reported damaged: sparse=%v outlier=%v",
			reports[SectionSparse].Err, reports[SectionOutlier].Err)
	}
	ns, no := reports[SectionSparse].Points, reports[SectionOutlier].Points
	if ns == 0 || no == 0 {
		t.Fatalf("intact sections recovered no points: sparse=%d outlier=%d", ns, no)
	}
	nd := len(full) - ns - no
	want := append(geom.PointCloud{}, full[nd:]...)
	if !cloudsEqual(want, part) {
		t.Fatalf("partial cloud differs from the intact sections (%d vs %d points)", len(part), len(want))
	}
}

// TestShardedPartialGroupSalvage corrupts one radial group inside the v3
// sparse section and checks DecompressPartial keeps every other group (and
// both other sections) while reporting the damage.
func TestShardedPartialGroupSalvage(t *testing.T) {
	pc := frame(t, lidar.City)
	opts := paperOptions(0.02)
	opts.Shards = 4
	data, stats, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	fullSparse := stats.NumSparse
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	damageLargestGroup(t, c.sec[SectionSparse].payload)

	part, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode rejected the whole frame: %v", err)
	}
	if reports[SectionSparse].Err == nil {
		t.Fatal("sparse damage not reported")
	}
	ns := reports[SectionSparse].Points
	if ns == 0 || ns >= fullSparse {
		t.Fatalf("group salvage recovered %d of %d sparse points; want partial recovery", ns, fullSparse)
	}
	nd, no := reports[SectionDense].Points, reports[SectionOutlier].Points
	if nd == 0 || no == 0 {
		t.Fatalf("undamaged sections lost points: dense=%d outlier=%d", nd, no)
	}
	if nd+ns+no != len(part) {
		t.Fatalf("reported points (%d+%d+%d) disagree with partial cloud (%d)", nd, ns, no, len(part))
	}
	// Dense and outlier runs must match the pristine decode exactly.
	if !cloudsEqual(full[:nd], part[:nd]) {
		t.Fatal("dense run differs after sparse group salvage")
	}
	if !cloudsEqual(full[len(full)-no:], part[len(part)-no:]) {
		t.Fatal("outlier run differs after sparse group salvage")
	}
}

// TestShardedRegionQuery: range queries read the v3 dialect too.
func TestShardedRegionQuery(t *testing.T) {
	pc := frame(t, lidar.Campus)
	box := geom.AABB{Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}
	legacy, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecompressRegion(legacy, box)
	if err != nil {
		t.Fatal(err)
	}
	opts := paperOptions(0.02)
	opts.Shards = 4
	data, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressRegion(data, box)
	if err != nil {
		t.Fatal(err)
	}
	if !cloudsEqual(want, got) {
		t.Fatalf("sharded region query differs from legacy (%d vs %d points)", len(got), len(want))
	}
}

// sparseHeaderLen returns the byte length of the sparse section header
// (flags varint, q float64, group count varint).
func sparseHeaderLen(t *testing.T, sp []byte) int {
	t.Helper()
	_, u1, err := varint.Uint(sp)
	if err != nil {
		t.Fatal(err)
	}
	_, u2, err := varint.Uint(sp[u1+8:])
	if err != nil {
		t.Fatal(err)
	}
	return u1 + 8 + u2
}

// damageLargestGroup locates the largest radial group inside the sparse
// payload sp and flips a byte in its middle — inside the group body, past
// its CRC, away from the group-length table so the section envelope still
// parses.
func damageLargestGroup(t *testing.T, sp []byte) {
	t.Helper()
	off, bestOff, bestLen := sparseHeaderLen(t, sp), 0, 0
	rest := sp[off:]
	for len(rest) > 0 {
		glen, used, err := varint.Uint(rest)
		if err != nil {
			t.Fatal(err)
		}
		off += used
		rest = rest[used:]
		if int(glen) > bestLen {
			bestLen, bestOff = int(glen), off
		}
		off += int(glen)
		rest = rest[glen:]
	}
	if bestLen < 16 {
		t.Fatalf("largest group is only %d bytes", bestLen)
	}
	sp[bestOff+bestLen/2] ^= 0xff
}
