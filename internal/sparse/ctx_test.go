package sparse

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/streamcodec"
)

// TestContextRoundTrip: the v5 context dialect decodes to the points of the
// legacy section — every one of them, in the forward-first order, so
// compared as multisets — on the test frame and on all six scenes, and the
// section never grows by more than the per-group methods byte. (Layouts 2
// and 3 read the same; they are left out to keep the race-detector run of
// this package short.) The first rows' names keep the shard count and the
// blockpack flag of the retired dialects; the rows that ask for either are
// refused, with the context dialect or without.
func TestContextRoundTrip(t *testing.T) {
	check := func(t *testing.T, pc geom.PointCloud, plain, serial Encoded, opts Options) {
		t.Helper()
		// Guard bound: one methods byte per group is the only overhead
		// the dialect may add when every coder loses.
		if len(serial.Data) > len(plain.Data)+opts.groups() {
			t.Fatalf("context section %dB exceeds plain %dB + %d method bytes",
				len(serial.Data), len(plain.Data), opts.groups())
		}
		t.Logf("section bytes: plain %d, ctx %d", len(plain.Data), len(serial.Data))
		want, err := Decode(plain.Data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(serial.Data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d points, want %d", len(got), len(want))
		}
		sg, sw := sortedCloud(got), sortedCloud(want)
		for i := range sg {
			if sg[i] != sw[i] {
				t.Fatalf("sorted point %d: got %v want %v", i, sg[i], sw[i])
			}
		}
		verify(t, pc, serial, got, opts.Q)
	}
	pc, idx, meta := sparseFrame(t)
	base := defaultOpts(meta)
	t.Run("shards=0/blockpack=false", func(t *testing.T) {
		opts := base
		plain, err := Encode(pc, idx, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Context = true
		serial, err := Encode(pc, idx, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(t, pc, plain, serial, opts)
	})
	for _, cfg := range []struct {
		shards    int
		blockpack bool
	}{{4, false}, {0, true}, {4, true}} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=%v", cfg.shards, cfg.blockpack), func(t *testing.T) {
			for _, ctx := range []bool{false, true} {
				opts := base
				opts.Shards, opts.BlockPack, opts.Context = cfg.shards, cfg.blockpack, ctx
				if enc, err := Encode(pc, idx, opts); !errors.Is(err, streamcodec.ErrRetiredDialect) || enc.Data != nil {
					t.Errorf("Context %v: %d bytes, %v; want ErrRetiredDialect", ctx, len(enc.Data), err)
				}
			}
		})
	}
	for _, kind := range lidar.AllScenes {
		t.Run("scene="+string(kind), func(t *testing.T) {
			plain, ff := encodedScene(t, kind, false), encodedScene(t, kind, true)
			check(t, ff.pc, plain.enc, ff.enc, coreSparseOptions(true))
			if slices.Equal(ff.full, plain.full) {
				t.Error("the v5 decode keeps the v2 order")
			}
		})
	}
}

// TestContextCorrupt: truncating a context-dialect section anywhere must
// error, and reserved method markers are rejected.
func TestContextCorrupt(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	opts := defaultOpts(meta)
	opts.Context = true
	enc, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc.Data); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < len(enc.Data); l += 17 {
		if _, err := Decode(enc.Data[:l]); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
}
