package octree

import (
	"errors"
	"fmt"
	"testing"

	"dbgc/internal/ctxmodel"
	"dbgc/internal/varint"
)

// TestContextRoundTrip: the context-modeled occupancy dialect decodes to
// the same geometry as the legacy stream across shard counts, and the
// stream leads with a valid method marker. Without features (0) the marker
// says legacy and the legacy bytes follow it, which is what core emits.
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
		for _, feats := range []ctxmodel.Features{0, ctxmodel.DefaultFeatures, ctxmodel.FeatAll} {
			t.Run(fmt.Sprintf("shards=%d/feats=%#x", shards, byte(feats)), func(t *testing.T) {
				opts := EncodeOptions{Shards: shards, Context: true, CtxFeatures: feats}
				serial, err := EncodeWith(pc, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if feats == 0 {
					plain, err := EncodeWith(pc, q, EncodeOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if len(serial.Data) != len(plain.Data)+1 {
						t.Fatalf("marker-only stream is %d bytes, the plain one %d", len(serial.Data), len(plain.Data))
					}
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
}

// TestContextGuard: a Context encode must never produce a larger occupancy
// stream than the legacy dialect it guards against — when the context
// coding loses, the marker must say legacy and the payload must be the
// exact legacy bytes.
func TestContextGuard(t *testing.T) {
	// A tiny cloud gives the context models nothing to learn from, so the
	// per-stream guard should fall back to the legacy bytes.
	pc := randomCloud(12, 5, 2)
	const q = 0.01
	plain, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := EncodeWith(pc, q, EncodeOptions{Context: true, CtxFeatures: ctxmodel.DefaultFeatures})
	if err != nil {
		t.Fatal(err)
	}
	// The context stream carries one marker byte per frame over legacy.
	if len(ctx.Data) > len(plain.Data)+1 {
		t.Fatalf("context stream %dB exceeds legacy %dB + marker", len(ctx.Data), len(plain.Data))
	}
	got, err := DecodeWith(ctx.Data, DecodeOptions{Context: true})
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, pc, got, ctx.DecodedOrder, q)
}

// TestContextCorrupt: bad method markers are rejected, and truncating a
// context stream anywhere errors rather than panicking.
func TestContextCorrupt(t *testing.T) {
	pc := randomCloud(3000, 40, 4)
	enc, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true, CtxFeatures: ctxmodel.DefaultFeatures})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWith(enc.Data, DecodeOptions{Context: true}); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(enc.Data); l += 11 {
		if _, err := DecodeWith(enc.Data[:l], DecodeOptions{Context: true}); err == nil {
			t.Errorf("truncated at %d: want error", l)
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

// withGroupedMarker returns the EncodeGrouped stream data with the varint
// marker spliced in where the group list begins: after the point count with
// the cube (four floats), the depth and the code count.
func withGroupedMarker(t testing.TB, data []byte, marker uint64) []byte {
	t.Helper()
	at := 0
	for _, floats := range []int{4, 0, 0} { // a varint, then that many floats
		_, used, err := varint.Uint(data[at:])
		if err != nil {
			t.Fatal(err)
		}
		at += used + 8*floats
	}
	out := append([]byte(nil), data[:at]...)
	out = varint.AppendUint(out, marker)
	return append(out, data[at:]...)
}
