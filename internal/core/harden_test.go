package core

import (
	"context"
	"errors"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/octree"
	"dbgc/internal/varint"
)

// TestTruncationSweep feeds every prefix of a valid compressed frame, and
// the frame with each byte in turn damaged, to the decoder under small
// decode limits, for the default dialect and for the paper's coders: a
// prefix must fail with a clean error — the container's section framing
// and CRCs cannot survive truncation — and a damaged frame must fail or
// decode within the limits, with no panic and no allocation past the budget
// either way.
func TestTruncationSweep(t *testing.T) {
	pc := frame(t, lidar.City)[:4000]
	lim := DecompressOptions{Limits: DecodeLimits{MaxPoints: 1 << 20, MaxNodes: 1 << 24, MemBudget: 256 << 20}}
	for name, opts := range map[string]Options{"default": DefaultOptions(0.02), "paper": paperOptions(0.02)} {
		data, _, err := Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(data); i++ {
			if _, err := DecompressWith(data[:i], lim); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", name, i, len(data))
			}
		}
		bad := append([]byte(nil), data...)
		for i := range bad {
			bad[i] ^= 1 << (i % 8)
			if got, err := DecompressWith(bad, lim); err == nil && len(got) > 1<<20 {
				t.Fatalf("%s: byte %d flipped: %d points decoded past MaxPoints", name, i, len(got))
			}
			if _, err := DecompressRegionWith(bad, laneBox, lim); err == nil && i > len(magic)+8 {
				// Past the envelope every byte is under a section CRC.
				t.Fatalf("%s: byte %d flipped: region decode passed the section CRCs", name, i)
			}
			bad[i] = data[i]
		}
	}
}

// TestDecodeLimitsEnforced: a well-formed frame still fails once the caller
// allows fewer resources than it needs, and the error wraps ErrLimit so the
// caller can tell "too expensive" from "corrupt".
func TestDecodeLimitsEnforced(t *testing.T) {
	pc := frame(t, lidar.City)[:4000]
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DecodeLimits{MaxPoints: 16}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("MaxPoints=16: want ErrLimit, got %v", err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DecodeLimits{MaxSectionBytes: 8}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("MaxSectionBytes=8: want ErrLimit, got %v", err)
	}
	if _, err := DecompressWith(data, DecompressOptions{Limits: DecodeLimits{MemBudget: 64}}); !errors.Is(err, ErrLimit) {
		t.Fatalf("MemBudget=64: want ErrLimit, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecompressWith(data, DecompressOptions{Limits: DecodeLimits{Ctx: ctx}}); err == nil {
		t.Fatal("cancelled context: want error, got nil")
	}
	// Generous limits decode the same points as no limits at all.
	want, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressWith(data, DecompressOptions{Limits: DefaultDecodeLimits()})
	if err != nil {
		t.Fatal(err)
	}
	if !cloudsEqual(want, got) {
		t.Fatal("decode under DefaultDecodeLimits differs from unlimited decode")
	}
}

// TestDecompressPartialRecoversIntactSections corrupts one section of a v2
// frame and checks that DecompressPartial returns the other two sections
// byte-identically to a full decode of the pristine frame while reporting
// the damaged one.
func TestDecompressPartialRecoversIntactSections(t *testing.T) {
	data, stats := defaultFrame(t, lidar.City)
	if stats.NumDense == 0 || stats.NumSparse == 0 || stats.NumOutliers == 0 {
		t.Fatalf("test frame must populate all sections, got %d/%d/%d",
			stats.NumDense, stats.NumSparse, stats.NumOutliers)
	}
	full, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the sparse payload (it aliases data).
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload
	sp[len(sp)/2] ^= 0xff

	if _, err := Decompress(data); err == nil {
		t.Fatal("full decode of the corrupted frame should fail")
	}
	part, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatalf("partial decode rejected the whole frame: %v", err)
	}
	if reports[SectionSparse].Err == nil {
		t.Fatal("sparse section damage not reported")
	}
	if len(reports[SectionSparse].Raw) != len(sp) {
		t.Fatalf("damaged report carries %d raw bytes, want %d", len(reports[SectionSparse].Raw), len(sp))
	}
	if reports[SectionDense].Err != nil || reports[SectionOutlier].Err != nil {
		t.Fatalf("intact sections reported damaged: dense=%v outlier=%v",
			reports[SectionDense].Err, reports[SectionOutlier].Err)
	}
	// Full decode order is dense, sparse, outlier; the partial cloud keeps
	// container order, so it must equal full minus the sparse run.
	nd, no := reports[SectionDense].Points, reports[SectionOutlier].Points
	if nd == 0 || no == 0 {
		t.Fatalf("intact sections recovered no points: dense=%d outlier=%d", nd, no)
	}
	want := append(append(geom.PointCloud{}, full[:nd]...), full[len(full)-no:]...)
	if !cloudsEqual(want, part) {
		t.Fatalf("partial cloud differs from the intact sections of the full decode (%d vs %d points)",
			len(part), len(want))
	}
}

// TestDecompressPartialCRCCatchesDamage: on a v2 frame the per-section CRC
// flags damage even when the mutated bytes would still decode, so a report
// appears no matter where the flip lands.
func TestDecompressPartialCRCCatchesDamage(t *testing.T) {
	pc := frame(t, lidar.Residential)[:2000]
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := SectionID(0); id < numSections; id++ {
		if err := c.sec[id].verify(id); err != nil {
			t.Fatalf("freshly written frame: %v", err)
		}
	}
	dn := c.sec[SectionDense].payload
	dn[0] ^= 0x01
	_, reports, err := DecompressPartial(data, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reports[SectionDense].Err == nil {
		t.Fatal("dense CRC mismatch not reported")
	}
	dn[0] ^= 0x01 // restore: the frame must round-trip again
	back, err := Decompress(data)
	if err != nil || len(back) != len(pc) {
		t.Fatalf("restored frame broken: %d points, %v", len(back), err)
	}
}

// TestV1FramesRefused: a version-1 frame (bare section lengths, no CRCs) is
// no longer read. Every decode entry point answers it with the
// unsupported-version error before touching a section, so a v1 stream whose
// payloads would still decode fails closed rather than unchecked.
func TestV1FramesRefused(t *testing.T) {
	pc := frame(t, lidar.Residential)[:2000]
	data, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(magic), 1)
	v1 = varint.AppendUint(v1, uint64(c.mode))
	for id := SectionID(0); id < numSections; id++ {
		v1 = varint.AppendUint(v1, uint64(len(c.sec[id].payload)))
		v1 = append(v1, c.sec[id].payload...)
	}
	const want = "core: unsupported version 1"
	entries := map[string]func() (geom.PointCloud, error){
		"Decompress": func() (geom.PointCloud, error) { return Decompress(v1) },
		"DecompressPartial": func() (geom.PointCloud, error) {
			pts, _, err := DecompressPartial(v1, DecompressOptions{})
			return pts, err
		},
		"DecompressRegion": func() (geom.PointCloud, error) { return DecompressRegion(v1, geom.Bounds(pc)) },
	}
	for name, decode := range entries {
		pts, err := decode()
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
		if len(pts) != 0 {
			t.Errorf("%s: returned %d points from a refused frame", name, len(pts))
		}
	}
}

func cloudsEqual(a, b geom.PointCloud) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRawOutlierCountOverflow: a header count chosen so 12*n wraps uint64
// must be rejected, not used as an allocation size.
func TestRawOutlierCountOverflow(t *testing.T) {
	// n = 2^62 + 1 makes 12*n ≡ 12 (mod 2^64), matching a 12-byte payload.
	n := uint64(1)<<62 + 1
	data := varint.AppendUint(nil, n)
	data = append(data, make([]byte, 12)...)
	if _, err := decodeOutliers(nil, data, OutlierNone, octree.DecodeOptions{}); err == nil {
		t.Fatal("wrapped outlier count accepted")
	}
	// Sanity: the bound still admits a correct stream.
	good := varint.AppendUint(nil, 1)
	good = append(good, make([]byte, 12)...)
	pts, err := decodeOutliers(nil, good, OutlierNone, octree.DecodeOptions{})
	if err != nil || len(pts) != 1 {
		t.Fatalf("valid raw outlier section rejected: %v", err)
	}
}
