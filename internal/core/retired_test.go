package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
	"dbgc/internal/varint"
)

// withSection returns the frame data with section id's payload replaced
// and its CRC recomputed: damage that the section CRC does not catch, as an
// encoder that wrote it would have framed it.
func withSection(t testing.TB, data []byte, id SectionID, payload []byte) []byte {
	t.Helper()
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(magic), c.version)
	if c.version == version5 {
		out = append(out, dialectContext)
	}
	out = varint.AppendUint(out, uint64(c.mode))
	for i, sec := range c.sec {
		if SectionID(i) == id {
			sec.payload = payload
		}
		out = appendSection(out, sec.payload)
	}
	return out
}

// refusesRetired checks that every reader of a frame refuses data as
// ErrRetiredDialect and returns no points: Decompress, DecompressRegion,
// DecompressPartial — which fails the whole frame where the envelope says
// it, the section where only the section does — and Inspect, where the
// envelope says it.
func refusesRetired(t *testing.T, what string, data []byte, envelope bool) {
	t.Helper()
	if pc, err := Decompress(data); !errors.Is(err, ErrRetiredDialect) || pc != nil {
		t.Errorf("%s: Decompress: %d points, %v; want ErrRetiredDialect", what, len(pc), err)
	}
	if pc, err := DecompressRegion(data, laneBox); !errors.Is(err, ErrRetiredDialect) || pc != nil {
		t.Errorf("%s: DecompressRegion: %d points, %v; want ErrRetiredDialect", what, len(pc), err)
	}
	pc, reports, err := DecompressPartial(data, DecompressOptions{})
	if envelope {
		if !errors.Is(err, ErrRetiredDialect) || pc != nil || reports != nil {
			t.Errorf("%s: DecompressPartial: %d points, %d reports, %v; want ErrRetiredDialect", what, len(pc), len(reports), err)
		}
		if _, err := Inspect(data); !errors.Is(err, ErrRetiredDialect) {
			t.Errorf("%s: Inspect: %v, want ErrRetiredDialect", what, err)
		}
		return
	}
	if err != nil || !errors.Is(reports[SectionSparse].Err, ErrRetiredDialect) || reports[SectionSparse].Points != 0 {
		t.Errorf("%s: DecompressPartial: %v, sparse section %+v; want ErrRetiredDialect on it", what, err, reports[SectionSparse])
	}
	if lay, err := Inspect(data); err != nil || lay.ShardedStreams || lay.BlockPacked {
		t.Errorf("%s: Inspect: %+v, %v", what, lay, err)
	}
}

// The two retired vectors: testdata/city-sector-shards8.dbgc (container v3,
// written with Shards: 8 by the encoder of commit ff27d99) and
// city-sector-blockpack.dbgc (container v4, written with BlockPack by the
// encoder of commit a8d4062) are the 4972-point city sector of
// TestDecodeGoldenVectors in the two retired containers; the last decoder
// that read them gave that test's points.
const (
	shardsVector    = "testdata/city-sector-shards8.dbgc"
	blockpackVector = "testdata/city-sector-blockpack.dbgc"
)

// retiredVector reads one of the two, holding it to its pinned hash and
// container version.
func retiredVector(t *testing.T, file string) []byte {
	t.Helper()
	want := map[string]struct {
		sha     string
		version byte
	}{
		shardsVector:    {"9aa9dff7987fc25af40b755d4500972e6c810b90d4d5901b984d4377ef8d2c09", version3},
		blockpackVector: {"b5ee35eb816d8447d0f22209a3af1878a4c1dddd837d7da956205c93a62712a4", version4},
	}[file]
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != want.sha {
		t.Fatalf("%s has sha256 %s, want %s", file, got, want.sha)
	}
	if data[len(magic)] != want.version {
		t.Fatalf("%s: container version %d, want %d", file, data[len(magic)], want.version)
	}
	return data
}

// TestRetiredVectorsRefused: every reader refuses both retired vectors as
// ErrRetiredDialect, at any width.
func TestRetiredVectorsRefused(t *testing.T) {
	for _, file := range []string{shardsVector, blockpackVector} {
		data := retiredVector(t, file)
		for _, procs := range []int{1, 4} {
			partest.At(procs, func() { refusesRetired(t, file, data, true) })
		}
	}
}

// refusedUnderLimits checks that a retired vector is refused as
// ErrRetiredDialect under the default limits and under limits far below the
// frame's, the refusal coming before anything is charged.
func refusedUnderLimits(t *testing.T, file string, tiny DecodeLimits) {
	data := retiredVector(t, file)
	for _, lim := range []DecodeLimits{DefaultDecodeLimits(), tiny} {
		if pc, err := DecompressWith(data, DecompressOptions{Limits: lim}); !errors.Is(err, ErrRetiredDialect) || pc != nil {
			t.Errorf("limits %+v: %d points, %v; want ErrRetiredDialect", lim, len(pc), err)
		}
	}
}

// refusedInRegion checks that a retired vector is refused as
// ErrRetiredDialect by a region read, whatever the box.
func refusedInRegion(t *testing.T, file string) {
	data := retiredVector(t, file)
	for _, box := range []geom.AABB{laneBox, {Min: geom.Point{X: -20, Y: -20, Z: -5}, Max: geom.Point{X: 20, Y: 20, Z: 5}}} {
		if pc, err := DecompressRegion(data, box); !errors.Is(err, ErrRetiredDialect) || pc != nil {
			t.Errorf("box %v: %d points, %v; want ErrRetiredDialect", box, len(pc), err)
		}
	}
}

// refusedInPartial checks that DecompressPartial refuses a retired vector
// as a whole — no points, no section reports — intact or damaged in its
// middle, where the parts of a frame it still reads are salvaged.
func refusedInPartial(t *testing.T, file string) {
	data := retiredVector(t, file)
	mut := bytes.Clone(data)
	mut[len(mut)/2] ^= 0xff
	for what, d := range map[string][]byte{"intact": data, "damaged": mut} {
		pc, reports, err := DecompressPartial(d, DecompressOptions{})
		if !errors.Is(err, ErrRetiredDialect) || pc != nil || reports != nil {
			t.Errorf("%s: %d points, %d reports, %v; want ErrRetiredDialect", what, len(pc), len(reports), err)
		}
	}
}

// sparseFlagged returns the default city frame with its sparse section
// declaring flag, one of the retired sharded and blockpacked flags, and the
// points of its dense and outlier sections, which still decode.
func sparseFlagged(t *testing.T, flag byte) (data []byte, dense, outliers geom.PointCloud) {
	t.Helper()
	data, _ = defaultFrame(t, lidar.City)
	full, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nd, no := reports[SectionDense].Points, reports[SectionOutlier].Points
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload
	bad := withSection(t, data, SectionSparse, append([]byte{sp[0] | flag}, sp[1:]...))
	return bad, full[:nd], full[len(full)-no:]
}

// refusedSparseSalvaged checks that DecompressPartial reports a sparse
// section that declares flag as ErrRetiredDialect and returns the frame's
// dense and outlier points, exactly.
func refusedSparseSalvaged(t *testing.T, flag byte) {
	data, dense, outliers := sparseFlagged(t, flag)
	got, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode rejected the whole frame: %v", err)
	}
	if !errors.Is(reports[SectionSparse].Err, ErrRetiredDialect) || reports[SectionSparse].Points != 0 {
		t.Fatalf("sparse section %+v, want ErrRetiredDialect and no points", reports[SectionSparse])
	}
	if reports[SectionDense].Err != nil || reports[SectionOutlier].Err != nil || len(dense) == 0 || len(outliers) == 0 {
		t.Fatalf("intact sections: dense %+v, outlier %+v", reports[SectionDense], reports[SectionOutlier])
	}
	if want := append(append(geom.PointCloud{}, dense...), outliers...); !cloudsEqual(want, got) {
		t.Fatalf("partial cloud differs from the intact sections (%d vs %d points)", len(got), len(want))
	}
}

// TestShardedEquivalence: Shards 1 writes the paper's container and decodes
// to its points; any more shards ask for the retired sharded dialect, and
// Compress refuses them.
func TestShardedEquivalence(t *testing.T) {
	pc := frame(t, lidar.City)
	legacyData, _, err := Compress(pc, paperOptions(0.02))
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
			if shards > 1 {
				if !errors.Is(err, ErrRetiredDialect) || serial != nil || stats != nil {
					t.Fatalf("%d bytes, %v; want ErrRetiredDialect", len(serial), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, legacyData) || len(stats.Mapping) != len(pc) {
				t.Fatalf("%d bytes and %d mapped points, want the paper's %d bytes and %d", len(serial), len(stats.Mapping), len(legacyData), len(pc))
			}
			got, err := Decompress(serial)
			if err != nil || !cloudsEqual(want, got) {
				t.Fatalf("decode differs from legacy decode (%v)", err)
			}
		})
	}
}

// TestShardedDecodeUnderLimits: the v3 vector is refused under the default
// limits and under a shard cap of one alike.
func TestShardedDecodeUnderLimits(t *testing.T) {
	refusedUnderLimits(t, shardsVector, DecodeLimits{MaxShards: 1})
}

// TestShardedPartialSectionRecovery: DecompressPartial refuses the v3
// vector whole; a v5 frame whose sparse section declares the retired
// sharded flag loses that section to ErrRetiredDialect and keeps the other
// two.
func TestShardedPartialSectionRecovery(t *testing.T) {
	refusedInPartial(t, shardsVector)
	refusedSparseSalvaged(t, 1<<2) // sparse's flagSharded
}

// TestShardedPartialGroupSalvage: the group CRCs only the retired dialects
// wrote are gone with them, and with them the salvage of single radial
// groups: the v3 vector, damaged in one of them or not, is refused whole.
func TestShardedPartialGroupSalvage(t *testing.T) {
	data := retiredVector(t, shardsVector)
	if _, err := parseContainer(data, nil); !errors.Is(err, ErrRetiredDialect) {
		t.Fatalf("the v3 container parses: %v, want ErrRetiredDialect", err)
	}
	refusedInPartial(t, shardsVector)
}

// TestShardedRegionQuery: a region read refuses the v3 vector.
func TestShardedRegionQuery(t *testing.T) {
	refusedInRegion(t, shardsVector)
}

// TestBlockPackRoundTrip: BlockPack asks for the retired v4 dialect, at any
// shard count, and Compress refuses it.
func TestBlockPackRoundTrip(t *testing.T) {
	pc := frame(t, lidar.City)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := paperOptions(0.02)
			opts.Shards = shards
			opts.BlockPack = true
			if out, stats, err := Compress(pc, opts); !errors.Is(err, ErrRetiredDialect) || out != nil || stats != nil {
				t.Fatalf("%d bytes, %v; want ErrRetiredDialect", len(out), err)
			}
		})
	}
}

// TestBlockPackOffByteIdentical: BlockPack false is the paper's container,
// byte for byte, where the shard count is one, and refused with the rest
// of the retired sharded dialect where it is more.
func TestBlockPackOffByteIdentical(t *testing.T) {
	pc := frame(t, lidar.Campus)
	ref, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		opts := paperOptions(0.02)
		opts.Shards = shards
		opts.BlockPack = false
		off, _, err := Compress(pc, opts)
		if shards > 1 {
			if !errors.Is(err, ErrRetiredDialect) || off != nil {
				t.Errorf("shards=%d: %d bytes, %v; want ErrRetiredDialect", shards, len(off), err)
			}
			continue
		}
		if err != nil || !bytes.Equal(ref, off) {
			t.Fatalf("shards=%d: BlockPack=false changed the container bytes (%v)", shards, err)
		}
	}
}

// TestBlockPackWithLimits: the v4 vector is refused under the default limits
// and under a 64-node budget alike.
func TestBlockPackWithLimits(t *testing.T) {
	refusedUnderLimits(t, blockpackVector, DecodeLimits{MaxNodes: 64})
}

// TestBlockPackRegion: a region read refuses the v4 vector.
func TestBlockPackRegion(t *testing.T) {
	refusedInRegion(t, blockpackVector)
}

// TestBlockPackPartialSalvage: DecompressPartial refuses the v4 vector
// whole; a v5 frame whose sparse section declares the retired blockpack
// flag loses that section to ErrRetiredDialect and keeps the other two.
func TestBlockPackPartialSalvage(t *testing.T) {
	refusedInPartial(t, blockpackVector)
	refusedSparseSalvaged(t, 1<<3) // sparse's flagBlockPack
}

// TestRetiredDialectsRefused: a v5 frame that declares a retired dialect —
// by the sharded or blockpack bit of its dialect byte, or by the sharded or
// blockpack flag of its sparse stream — is refused as ErrRetiredDialect,
// and so are options that ask Compress for one. (A context-modeled stream
// framed in more than one shard is streamcodec's TestRetiredShardCounts.)
func TestRetiredDialectsRefused(t *testing.T) {
	pc := citySector(t)
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []byte{dialectSharded, dialectBlockPack} {
		bad := bytes.Clone(data)
		bad[len(magic)+1] |= bit
		refusesRetired(t, fmt.Sprintf("dialect bit %#x", bit), bad, true)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload
	for _, flag := range []byte{1 << 2, 1 << 3} { // sparse's flagSharded, flagBlockPack
		bad := withSection(t, data, SectionSparse, append([]byte{sp[0] | flag}, sp[1:]...))
		refusesRetired(t, fmt.Sprintf("sparse flag %#x", flag), bad, false)
	}

	for _, o := range []struct {
		name string
		set  func(*Options)
	}{
		{"Shards 2", func(o *Options) { o.Shards = 2 }},
		{"BlockPack", func(o *Options) { o.BlockPack = true }},
		{"paper coders, Shards 8", func(o *Options) { o.ContextModel, o.Shards = false, 8 }},
		{"paper coders, BlockPack", func(o *Options) { o.ContextModel, o.BlockPack = false, true }},
	} {
		opts := DefaultOptions(0.02)
		o.set(&opts)
		if out, stats, err := Compress(pc, opts); !errors.Is(err, ErrRetiredDialect) || out != nil || stats != nil {
			t.Errorf("%s: %d bytes, %v; want ErrRetiredDialect", o.name, len(out), err)
		}
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
