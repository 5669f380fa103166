package octree

import (
	"testing"

	"dbgc/internal/geom"
)

// FuzzDecode hammers both octree decoders with mutated streams; they must
// never panic and never loop. Besides a stream of each dialect the seeds
// carry the v5 occupancy method byte garbled — 1, the retired context
// coder, 2, and high bits — and truncated, and a grouped stream behind the
// refused context marker 257.
func FuzzDecode(f *testing.F) {
	pc := geom.PointCloud{{X: 1, Y: 2, Z: 3}, {X: 1.1, Y: 2, Z: 3}, {X: -4, Y: 0, Z: 1}}
	plain, err := Encode(pc, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	grouped, err := EncodeGrouped(pc, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := EncodeWith(pc, 0.02, EncodeOptions{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	packed, err := EncodeWith(pc, 0.02, EncodeOptions{BlockPack: true})
	if err != nil {
		f.Fatal(err)
	}
	ctx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true})
	if err != nil {
		f.Fatal(err)
	}
	shardedCtx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Data)
	f.Add(grouped.Data)
	f.Add(sharded.Data)
	f.Add(packed.Data)
	f.Add(ctx.Data)
	f.Add(withGroupedMarker(f, grouped.Data, 257))
	f.Add([]byte{})
	f.Add(shardedCtx.Data)
	for _, data := range [][]byte{ctx.Data, shardedCtx.Data} {
		at := methodOffset(f, data)
		for _, method := range []byte{occMethodRetired, 2, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[at] = method
			f.Add(mut)
		}
		f.Add(data[:at])
		f.Add(data[:at+1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = Decode(b)
		_, _ = DecodeGrouped(b)
		// The v3/v4/v5 dialect flags are out of band, so every input is also
		// fed through the sharded, blockpack, and context decoders.
		_, _ = DecodeWith(b, DecodeOptions{Sharded: true})
		_, _ = DecodeWith(b, DecodeOptions{BlockPack: true})
		_, _ = DecodeWith(b, DecodeOptions{Context: true})
		_, _ = DecodeWith(b, DecodeOptions{Context: true, Sharded: true})
		_, _ = DecodeRegionWith(b, geom.AABB{Min: geom.Point{X: -5, Y: -5, Z: -5}, Max: geom.Point{X: 5, Y: 5, Z: 5}}, DecodeOptions{Context: true})
	})
}
