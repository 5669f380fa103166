package outlier

import (
	"bytes"
	"fmt"
	"testing"
)

// TestShardedRoundTrip: sharded outlier sections (quadtree occupancy plus
// z-delta stream) decode identically to the legacy section, and Shards<=1
// keeps the legacy bytes.
func TestShardedRoundTrip(t *testing.T) {
	pc := outlierCloud(40000, 9)
	const q = 0.02
	legacy, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(legacy.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			serial, err := EncodeWith(pc, q, EncodeOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if shards <= 1 && !bytes.Equal(serial.Data, legacy.Data) {
				t.Fatal("Shards=1 stream differs from legacy stream")
			}
			got, err := DecodeWith(serial.Data, DecodeOptions{Sharded: shards > 1})
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
			checkBound(t, pc, got, serial.DecodedOrder, q)
		})
	}
}
