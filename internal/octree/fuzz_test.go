package octree

import (
	"testing"

	"dbgc/internal/ctxmodel"
	"dbgc/internal/geom"
)

// FuzzDecode hammers both octree decoders with mutated streams; they must
// never panic and never loop.
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
	ctx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true, CtxFeatures: ctxmodel.DefaultFeatures})
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
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = Decode(b)
		_, _ = DecodeGrouped(b)
		// The v3/v4/v5 dialect flags are out of band, so every input is also
		// fed through the sharded, blockpack, and context decoders.
		_, _ = DecodeWith(b, DecodeOptions{Sharded: true})
		_, _ = DecodeWith(b, DecodeOptions{BlockPack: true})
		_, _ = DecodeWith(b, DecodeOptions{Context: true})
	})
}

// FuzzContextOctree concentrates on the v5 context streams: the seed corpus
// carries context-coded plain and sharded streams and a grouped stream
// behind the refused context marker, plus variants with truncated and
// garbled context-table headers (method marker, feature byte, context-count
// varint); no mutation may panic or loop either the plain or the grouped
// decoder.
func FuzzContextOctree(f *testing.F) {
	pc := geom.PointCloud{{X: 1, Y: 2, Z: 3}, {X: 1.1, Y: 2, Z: 3}, {X: -4, Y: 0, Z: 1}, {X: 0.5, Y: -2, Z: 0}}
	ctx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true, CtxFeatures: ctxmodel.DefaultFeatures})
	if err != nil {
		f.Fatal(err)
	}
	shardedCtx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true, CtxFeatures: ctxmodel.DefaultFeatures, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	grouped, err := EncodeGrouped(pc, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ctx.Data)
	f.Add(shardedCtx.Data)
	f.Add(withGroupedMarker(f, grouped.Data, 257))
	// The occupancy section sits after the point count, three floats, the
	// cube side, the depth varint, and the section length varint; garble a
	// window of offsets around it so the method marker, feature byte, and
	// declared context count all get hit.
	for off := 30; off < 44; off++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), ctx.Data...)
			if off < len(mut) {
				mut[off] ^= bit
				f.Add(mut)
			}
		}
	}
	for cut := 0; cut < len(ctx.Data); cut += 5 {
		f.Add(ctx.Data[:cut])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodeWith(b, DecodeOptions{Context: true})
		_, _ = DecodeWith(b, DecodeOptions{Context: true, Sharded: true})
		_, _ = DecodeGrouped(b)
		_, _ = DecodeRegionWith(b, geom.AABB{Min: geom.Point{X: -5, Y: -5, Z: -5}, Max: geom.Point{X: 5, Y: 5, Z: 5}}, DecodeOptions{Context: true})
	})
}
