package octree

import (
	"errors"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/streamcodec"
)

// FuzzDecode hammers both octree decoders with mutated streams; they must
// never panic and never loop, and a decode told the stream is in a retired
// dialect must refuse it. Besides a stream of each dialect the seeds carry
// the v5 occupancy method byte garbled — 1, the retired context coder, 2,
// and high bits — and truncated, and a grouped stream behind the refused
// context marker 257.
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
	wide := randomCloud(300, 20, 4)
	plainWide, err := Encode(wide, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	ctx, err := EncodeWith(pc, 0.02, EncodeOptions{Context: true})
	if err != nil {
		f.Fatal(err)
	}
	ctxWide, err := EncodeWith(wide, 0.02, EncodeOptions{Context: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Data)
	f.Add(grouped.Data)
	f.Add(plainWide.Data)
	f.Add(plain.Data[:len(plain.Data)-1])
	f.Add(ctx.Data)
	f.Add(withGroupedMarker(f, grouped.Data, 257))
	f.Add([]byte{})
	f.Add(ctxWide.Data)
	for _, data := range [][]byte{ctx.Data, ctxWide.Data} {
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
		// The v5 dialect flag is out of band, so every input is also fed
		// through the context decoder, and told it is in a retired dialect.
		_, _ = DecodeWith(b, DecodeOptions{Context: true})
		for _, o := range []DecodeOptions{{Sharded: true}, {BlockPack: true, Context: true}} {
			if _, err := DecodeWith(b, o); !errors.Is(err, streamcodec.ErrRetiredDialect) {
				t.Fatalf("%+v: %v, want ErrRetiredDialect", o, err)
			}
		}
		_, _ = DecodeRegionWith(b, geom.AABB{Min: geom.Point{X: -5, Y: -5, Z: -5}, Max: geom.Point{X: 5, Y: 5, Z: 5}}, DecodeOptions{Context: true})
	})
}
