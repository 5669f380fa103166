package outlier

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/streamcodec"
)

// refusesRetired checks that an encode of pc with enc and a decode of the
// section data with dec, both naming a retired dialect, fail with
// streamcodec.ErrRetiredDialect and return nothing.
func refusesRetired(t *testing.T, pc geom.PointCloud, data []byte, enc EncodeOptions, dec DecodeOptions) {
	t.Helper()
	if e, err := EncodeWith(pc, 0.02, enc); !errors.Is(err, streamcodec.ErrRetiredDialect) || e.Data != nil {
		t.Errorf("%+v: %d bytes, %v; want ErrRetiredDialect", enc, len(e.Data), err)
	}
	if pts, err := DecodeWith(data, dec); !errors.Is(err, streamcodec.ErrRetiredDialect) || pts != nil {
		t.Errorf("%+v: %d points, %v; want ErrRetiredDialect", dec, len(pts), err)
	}
}

// TestShardedRoundTrip: Shards 1 is no dialect — it writes the plain
// section, which decodes to the plain points — while more shards,
// BlockPack, or a decode told its section is in either, ask for a retired
// dialect and fail with streamcodec.ErrRetiredDialect.
func TestShardedRoundTrip(t *testing.T) {
	pc := outlierCloud(40000, 9)
	const q = 0.02
	legacy, err := Encode(pc, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if shards > 1 {
				refusesRetired(t, pc, legacy.Data, EncodeOptions{Shards: shards}, DecodeOptions{Sharded: true})
				return
			}
			serial, err := EncodeWith(pc, q, EncodeOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Data, legacy.Data) {
				t.Fatal("Shards=1 stream differs from legacy stream")
			}
			got, err := DecodeWith(serial.Data, DecodeOptions{})
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			checkBound(t, pc, got, serial.DecodedOrder, q)
		})
	}
	t.Run("blockpack", func(t *testing.T) {
		refusesRetired(t, pc, legacy.Data, EncodeOptions{BlockPack: true}, DecodeOptions{BlockPack: true})
	})
}
