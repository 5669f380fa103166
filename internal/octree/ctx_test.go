package octree

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// TestContextRoundTrip: the v5 occupancy marker says legacy, the legacy
// bytes follow it, and the stream decodes to the same geometry as the
// plain one across shard counts. The row names keep the feature mask of
// the retired context coder, which these rows left at zero.
func TestContextRoundTrip(t *testing.T) {
	pc := randomCloud(60000, 120, 9)
	const q = 0.02
	legacy, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d/feats=0x0", shards), func(t *testing.T) {
			serial, err := EncodeWith(pc, q, EncodeOptions{Shards: shards, Context: true})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := EncodeWith(pc, q, EncodeOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Data) != len(plain.Data)+1 {
				t.Fatalf("marker-only stream is %d bytes, the plain one %d", len(serial.Data), len(plain.Data))
			}
			got, err := DecodeWith(serial.Data, DecodeOptions{Sharded: shards > 1, Context: true})
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d points, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
				}
			}
			checkErrorBound(t, pc, got, serial.DecodedOrder, q)
		})
	}
}

// TestContextGuard: the v5 dialect costs an occupancy stream exactly its
// marker. A Context encode is the plain encode with the occupancy section
// one byte longer and method 0 in front of the same bytes.
func TestContextGuard(t *testing.T) {
	pc := randomCloud(12, 5, 2)
	const q = 0.01
	plain, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := EncodeWith(pc, q, EncodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	at := methodOffset(t, ctx.Data)
	if ctx.Data[at] != occMethodLegacy {
		t.Fatalf("occupancy method %d, want %d", ctx.Data[at], occMethodLegacy)
	}
	lenAt := skipHeader(t, plain.Data, 2)
	l, used, err := varint.Uint(plain.Data[lenAt:])
	if err != nil {
		t.Fatal(err)
	}
	want := varint.AppendUint(append([]byte(nil), plain.Data[:lenAt]...), l+1)
	want = append(want, occMethodLegacy)
	want = append(want, plain.Data[lenAt+used:]...)
	if !bytes.Equal(ctx.Data, want) {
		t.Fatal("Context stream is not the plain stream with a method 0 marker")
	}
	got, err := DecodeWith(ctx.Data, DecodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, got, ctx.DecodedOrder, q)
}

// TestContextCorrupt: a method byte other than 0 is refused — 1, the
// retired context coder, by ErrContextOccupancy, 2 and 255 as corrupt —
// and truncating a context stream anywhere errors rather than panicking.
func TestContextCorrupt(t *testing.T) {
	pc := randomCloud(3000, 40, 4)
	enc, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWith(enc.Data, DecodeOptions{Context: true}); err != nil {
		t.Fatal(err)
	}
	at := methodOffset(t, enc.Data)
	for _, method := range []byte{1, 2, 255} {
		bad := append([]byte(nil), enc.Data...)
		bad[at] = method
		_, err := DecodeWith(bad, DecodeOptions{Context: true})
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrContextOccupancy) != (method == occMethodRetired) {
			t.Errorf("method %d: %v", method, err)
		}
	}
	for l := 0; l < len(enc.Data); l += 11 {
		if _, err := DecodeWith(enc.Data[:l], DecodeOptions{Context: true}); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
}

// ctxOccupancySHA pins testdata/ctx-occupancy.oct: the dense points of the
// city frame (layout 1, sensor seed 1) under DefaultOptions(0.02), coded
// with the context-modeled occupancy coder under its default features
// (octant reflection and parent adjacency) by the last encoder that had it.
// Method 1 won by 615 bytes there: 27,375 bytes against 27,990.
const ctxOccupancySHA = "1e03bde1d3759b5673b8ef7cc48fe7dcbb01c1300596312bf315139c8792c6a0"

// TestContextOccupancyRefused: a method 1 stream that an earlier encoder
// wrote is refused by name, by the whole-stream and the region decoder,
// and still as corrupt.
func TestContextOccupancyRefused(t *testing.T) {
	data, err := os.ReadFile("testdata/ctx-occupancy.oct")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != ctxOccupancySHA {
		t.Fatalf("testdata/ctx-occupancy.oct has sha256 %x, want %s", sum, ctxOccupancySHA)
	}
	if at := methodOffset(t, data); data[at] != occMethodRetired {
		t.Fatalf("occupancy method %d, want %d", data[at], occMethodRetired)
	}
	box := geom.AABB{Min: geom.Point{X: 5, Y: -5, Z: -3}, Max: geom.Point{X: 25, Y: 5, Z: 3}}
	for name, decode := range map[string]func() (geom.PointCloud, error){
		"DecodeWith":       func() (geom.PointCloud, error) { return DecodeWith(data, DecodeOptions{Context: true}) },
		"DecodeRegionWith": func() (geom.PointCloud, error) { return DecodeRegionWith(data, box, DecodeOptions{Context: true}) },
	} {
		pc, err := decode()
		if !errors.Is(err, ErrContextOccupancy) || !errors.Is(err, ErrCorrupt) || pc != nil {
			t.Errorf("%s: %d points, %v; want ErrContextOccupancy", name, len(pc), err)
		}
	}
}

// TestGroupedContextMarkerRefused: a group list that opens with 257 — the
// marker of a context-modeled grouped dialect that no longer exists — fails
// closed as corrupt, like any group id past the 256 end mark.
func TestGroupedContextMarkerRefused(t *testing.T) {
	enc, err := EncodeGrouped(randomCloud(2000, 80, 6), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGrouped(enc.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGrouped(withGroupedMarker(t, enc.Data, 257)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("group list opening with 257: %v, want ErrCorrupt", err)
	}
}

// methodOffset returns where the occupancy method byte of an EncodeWith
// stream with Context set sits: after the header, the occupancy section's
// code count and its length.
func methodOffset(t testing.TB, data []byte) int {
	t.Helper()
	return skipHeader(t, data, 3)
}

// skipHeader returns the offset past the point count, the cube (four
// floats) and the given number of varints after them: the depth, the code
// count of the occupancy section or of the grouped stream, and the
// section's length.
func skipHeader(t testing.TB, data []byte, varints int) int {
	t.Helper()
	at := 0
	for k := 0; k <= varints; k++ {
		_, used, err := varint.Uint(data[at:])
		if err != nil {
			t.Fatal(err)
		}
		at += used
		if k == 0 {
			at += 4 * 8
		}
	}
	return at
}

// withGroupedMarker returns the EncodeGrouped stream data with the varint
// marker spliced in where the group list begins: after the point count,
// the cube, the depth and the code count.
func withGroupedMarker(t testing.TB, data []byte, marker uint64) []byte {
	t.Helper()
	at := skipHeader(t, data, 2)
	out := append([]byte(nil), data[:at]...)
	out = varint.AppendUint(out, marker)
	return append(out, data[at:]...)
}
