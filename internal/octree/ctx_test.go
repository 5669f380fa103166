package octree

import (
	"fmt"
	"testing"

	"dbgc/internal/ctxmodel"
)

// TestContextRoundTrip: the context-modeled occupancy dialect decodes to
// the same geometry as the legacy stream across shard counts, and the
// stream leads with a valid method marker.
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
	ctx, err := EncodeWith(pc, q, EncodeOptions{Context: true})
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
	enc, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true})
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

// TestGroupedContextRoundTrip: the context-modeled grouped dialect decodes
// to the same geometry as the legacy grouped stream and is self-describing
// (DecodeGrouped needs no option to read it).
func TestGroupedContextRoundTrip(t *testing.T) {
	pc := randomCloud(20000, 80, 6)
	const q = 0.02
	legacy, err := EncodeGrouped(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeGrouped(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := EncodeGroupedWith(pc, q, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGrouped(ctx.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
		}
	}
	t.Logf("grouped occupancy bytes: legacy %d, ctx %d", len(legacy.Data), len(ctx.Data))
	for l := 0; l < len(ctx.Data); l += 13 {
		if _, err := DecodeGrouped(ctx.Data[:l]); err == nil {
			t.Errorf("grouped ctx truncated at %d: want error", l)
		}
	}
}
