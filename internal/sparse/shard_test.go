package sparse

import (
	"bytes"
	"fmt"
	"testing"
)

// TestShardedRoundTrip: sharded sparse sections (CRC-prefixed groups with
// sharded φ-tail and radial streams) decode identically to the legacy
// section, and Shards<=1 keeps the legacy bytes.
func TestShardedRoundTrip(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	base := defaultOpts(meta)
	legacy, err := Encode(pc, idx, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := base
			opts.Shards = shards
			serial, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if shards <= 1 && !bytes.Equal(serial.Data, legacy.Data) {
				t.Fatal("Shards=1 stream differs from legacy stream")
			}
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
