package sparse

import (
	"fmt"
	"testing"
)

// TestContextRoundTrip: the v5 context dialect decodes identically to the
// legacy section across the dialect matrix (shards × blockpack), and the
// section never grows by more than the per-group methods byte.
func TestContextRoundTrip(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	base := defaultOpts(meta)
	for _, cfg := range []Options{
		{},
		{Shards: 4},
		{BlockPack: true},
		{Shards: 4, BlockPack: true},
	} {
		t.Run(fmt.Sprintf("shards=%d/blockpack=%v", cfg.Shards, cfg.BlockPack), func(t *testing.T) {
			opts := base
			opts.Shards = cfg.Shards
			opts.BlockPack = cfg.BlockPack
			plain, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decode(plain.Data)
			if err != nil {
				t.Fatal(err)
			}
			opts.Context = true
			serial, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Guard bound: one methods byte per group is the only overhead
			// the dialect may add when every coder loses.
			if len(serial.Data) > len(plain.Data)+opts.groups() {
				t.Fatalf("context section %dB exceeds plain %dB + %d method bytes",
					len(serial.Data), len(plain.Data), opts.groups())
			}
			t.Logf("section bytes: plain %d, ctx %d", len(plain.Data), len(serial.Data))
			got, err := Decode(serial.Data)
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
			verify(t, pc, serial, got, base.Q)
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
