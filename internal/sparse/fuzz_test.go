package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/polyline"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// craftStream writes lines, as they are, as the one radial group of a
// spherical stream in the legacy dialect: the streams Encode would write for
// them, had Organize produced them. Encode cannot be made to write a
// polyline that turns back in θ; this can.
func craftStream(lines []polyline.Line) []byte { return craft(lines, 0) }

// craftV5 is craftStream in the v5 dialect, every angular stream marked
// for plain arithmetic coding, with the forward-first flag when it is
// asked for — whether or not lines keep the order's promise.
func craftV5(lines []polyline.Line, forwardFirst bool) []byte {
	flags := uint64(flagContext)
	if forwardFirst {
		flags |= flagForwardFirst
	}
	return craft(lines, flags)
}

// craft writes lines under the header flags given; past the flags, the
// bytes are those of the legacy or, with flagContext, the v5 dialect.
func craft(lines []polyline.Line, flags uint64) []byte {
	const q, rMax, thPhi, thR = 0.02, 40.0, 8, 50
	var lens []uint64
	var thetaHeads, thetaTails, phiHeads, phiTails []int64
	for _, l := range lines {
		lens = append(lens, uint64(len(l)))
		thetaHeads = append(thetaHeads, l[0].Theta)
		phiHeads = append(phiHeads, l[0].Phi)
		for k := 1; k < len(l); k++ {
			thetaTails = append(thetaTails, l[k].Theta-l[k-1].Theta)
			phiTails = append(phiTails, l[k].Phi-l[k-1].Phi)
		}
	}
	radials := make([]int64, len(lines)+len(thetaTails))
	refs, _ := codeRadial(new(polyline.Consensus), lines, thPhi, thR, false, false, radials, nil)

	group := binary.LittleEndian.AppendUint64(nil, math.Float64bits(rMax))
	for _, v := range []int{thPhi, thR, len(lines), len(thetaTails), len(refs)} {
		group = varint.AppendUint(group, uint64(v))
	}
	theta := streamcodec.DeflateVarint
	if flags&flagContext != 0 {
		m := byte(streamcodec.MarkPlain)
		group = append(group, m<<streamTable[1].marker|m<<streamTable[2].marker|m<<streamTable[4].marker)
		theta = streamcodec.Arith
	}
	group = appendStream(group, streamcodec.AppendUints(nil, streamcodec.Arith, lens))
	group = appendStream(group, streamcodec.AppendInts(nil, theta, deltaInts(thetaHeads)))
	group = appendStream(group, streamcodec.AppendInts(nil, theta, thetaTails))
	group = appendStream(group, streamcodec.AppendInts(nil, streamcodec.Arith, deltaInts(phiHeads)))
	group = appendStream(group, streamcodec.AppendInts(nil, streamcodec.Arith, phiTails))
	group = appendStream(group, streamcodec.AppendInts(nil, streamcodec.Arith, radials))
	group = appendStream(group, streamcodec.AppendCodes(nil, streamcodec.Arith, refs, refAlphabet))

	out := varint.AppendUint(nil, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(q))
	out = varint.AppendUint(out, 1)
	return appendStream(out, group)
}

// turnedBack returns three overlapping polylines, the second of which steps
// back in θ when backwards is set: a negative θ tail, which no encoder path
// emits and which would put an unsorted line into step 8's consensus.
func turnedBack(backwards bool) []polyline.Line {
	mid := int64(130)
	if backwards {
		mid = 90
	}
	return []polyline.Line{
		{{Theta: 100, Phi: 500, R: 900}, {Theta: 110, Phi: 500, R: 905}, {Theta: 120, Phi: 501, R: 2000}},
		{{Theta: 105, Phi: 503, R: 910}, {Theta: mid, Phi: 503, R: 1500}, {Theta: 140, Phi: 503, R: 2100}},
		{{Theta: 95, Phi: 506, R: 920}, {Theta: 112, Phi: 506, R: 1400}, {Theta: 150, Phi: 507, R: 930}},
	}
}

// TestNegativeThetaTailRefused: a group with a polyline that turns back in
// θ fails closed, whichever way the stream is read, in the legacy and the
// v5 dialect. The same streams with the polyline going forward decode, so
// it is the turn they are refused for.
func TestNegativeThetaTailRefused(t *testing.T) {
	readers := map[string]func([]byte) (geom.PointCloud, error){
		"Decode": Decode,
		"DecodeRegionInto": func(b []byte) (geom.PointCloud, error) {
			inf := math.Inf(1)
			return DecodeRegionInto(nil, b, &geom.AABB{Min: geom.Point{X: -inf, Y: -inf, Z: -inf}, Max: geom.Point{X: inf, Y: inf, Z: inf}}, DecodeOptions{})
		},
	}
	dialects := map[string]func([]polyline.Line) []byte{
		"legacy": craftStream,
		"v5":     func(lines []polyline.Line) []byte { return craftV5(lines, false) },
	}
	for dialect, craft := range dialects {
		for name, read := range readers {
			if pc, err := read(craft(turnedBack(false))); err != nil || len(pc) != 9 {
				t.Errorf("%s, %s: forward polylines decode to %d points, %v", name, dialect, len(pc), err)
			}
			pc, err := read(craft(turnedBack(true)))
			if !errors.Is(err, ErrCorrupt) || pc != nil {
				t.Errorf("%s, %s: polyline turning back in θ gives %d points, %v; want ErrCorrupt", name, dialect, len(pc), err)
			}
		}
	}
}

// TestShardedRoundTrip: Shards 1 is no dialect — it writes the plain
// section, which decodes to the plain points — while Encode refuses more
// shards and BlockPack, with the context dialect or without, and a stream
// whose header sets the sharded or the blockpack flag is refused as
// streamcodec.ErrRetiredDialect by every decoder, whatever the groups after
// it hold.
func TestShardedRoundTrip(t *testing.T) {
	pc, idx, meta := sparseFrame(t)
	base := defaultOpts(meta)
	legacy, err := Encode(pc, idx, base)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, retired Options) {
		for _, ctx := range []bool{false, true} {
			o := base
			o.Context, o.Shards, o.BlockPack = ctx, retired.Shards, retired.BlockPack
			if enc, err := Encode(pc, idx, o); !errors.Is(err, streamcodec.ErrRetiredDialect) || enc.Data != nil {
				t.Errorf("Shards %d, BlockPack %v, Context %v: %d bytes, %v; want ErrRetiredDialect", o.Shards, o.BlockPack, ctx, len(enc.Data), err)
			}
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if shards > 1 {
				refused(t, Options{Shards: shards})
				return
			}
			opts := base
			opts.Shards = shards
			serial, err := Encode(pc, idx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Data, legacy.Data) {
				t.Fatal("Shards=1 stream differs from legacy stream")
			}
			got, err := Decode(serial.Data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			verify(t, pc, serial, got, base.Q)
		})
	}
	t.Run("blockpack", func(t *testing.T) { refused(t, Options{BlockPack: true}) })
	t.Run("flags", func(t *testing.T) {
		for _, flags := range []uint64{flagSharded, flagBlockPack, flagSharded | flagBlockPack | flagContext} {
			for _, stream := range [][]byte{craft(turnedBack(false), flags), flagged(legacy.Data, byte(flags))} {
				if pts, err := Decode(stream); !errors.Is(err, streamcodec.ErrRetiredDialect) || pts != nil {
					t.Errorf("flags %#x: %d points, %v; want ErrRetiredDialect", flags, len(pts), err)
				}
				if pts, err := DecodeRegionInto(nil, stream, &geom.AABB{Max: geom.Point{X: 9, Y: 9, Z: 9}}, DecodeOptions{}); !errors.Is(err, streamcodec.ErrRetiredDialect) || pts != nil {
					t.Errorf("flags %#x, region: %d points, %v; want ErrRetiredDialect", flags, len(pts), err)
				}
			}
		}
	})
}

// FuzzDecode hammers the sparse decoder with mutated group streams; it
// must never panic.
func FuzzDecode(f *testing.F) {
	pc := geom.PointCloud{
		{X: 5, Y: 0, Z: -1}, {X: 5.02, Y: 0.03, Z: -1}, {X: 5.04, Y: 0.06, Z: -1},
		{X: 5.06, Y: 0.09, Z: -1}, {X: 20, Y: 3, Z: 0},
	}
	enc, err := Encode(pc, []int32{0, 1, 2, 3, 4}, Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007})
	if err != nil {
		f.Fatal(err)
	}
	ctx, err := Encode(pc, []int32{0, 1, 2, 3, 4},
		Options{Q: 0.02, Groups: 2, UTheta: 0.003, UPhi: 0.007, Context: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data)
	f.Add(enc.Data[:len(enc.Data)/3])
	// The retired sharded and blockpacked dialects' flags.
	f.Add(craft(turnedBack(false), flagSharded))
	f.Add(craft(turnedBack(false), flagBlockPack|flagContext))
	f.Add(ctx.Data)
	f.Add(ctx.Data[:2*len(ctx.Data)/3])
	// Garble the per-group methods byte region so unknown method markers and
	// reserved bits get exercised.
	mut := append([]byte(nil), ctx.Data...)
	if len(mut) > 16 {
		mut[16] ^= 0xff
	}
	f.Add(mut)
	f.Add(craftStream(turnedBack(true)))
	f.Add(craftV5(turnedBack(true), false))
	f.Add([]byte{})
	// The default dialect on streams long enough to be priced, not coded by
	// every rival: three rings of 2000 firings in one radial group.
	var rings geom.PointCloud
	var idx []int32
	for i := 0; i < 6000; i++ {
		theta, phi := 2*math.Pi*float64(i%2000)/2000, 1.6+0.007*float64(i/2000)
		r := 12 + 0.01*float64(i%7)
		rings = append(rings, geom.Point{X: r * math.Sin(phi) * math.Cos(theta), Y: r * math.Sin(phi) * math.Sin(theta), Z: r * math.Cos(phi)})
		idx = append(idx, int32(i))
	}
	def, err := Encode(rings, idx, Options{Q: 0.02, Groups: 1, UTheta: 2 * math.Pi / 2000, UPhi: 0.007, Context: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def.Data)
	// Forward-first streams (the ctx and default seeds above are the
	// encoder's): a sound one, the flag set on a stream whose lines cross
	// x = 0, and a line behind the sensor moved ahead of the lines ahead.
	f.Add(craftV5(append(aheadLines(), behindLine(3000, 3010, 3020)), true))
	f.Add(craftV5(append(aheadLines()[:1], behindLine(1500, 1510, 1600), aheadLines()[1]), true))
	f.Add(craftV5(append([]polyline.Line{behindLine(3000, 3010)}, aheadLines()...), true))
	ahead := geom.AABB{Min: geom.Point{X: 1, Y: -40, Z: -40}, Max: geom.Point{X: 40, Y: 40, Z: 40}}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The dialect flags ride in the stream header, so plain Decode
		// covers the v5 dialect and refuses the retired ones; a box ahead of
		// the sensor exercises a forward-first stream's prefix decode.
		_, err := Decode(b)
		if flags, _, ferr := varint.Uint(b); ferr == nil && flags&^knownFlags == 0 && flags&(flagSharded|flagBlockPack) != 0 && !errors.Is(err, streamcodec.ErrRetiredDialect) {
			t.Fatalf("flags %#x: %v, want ErrRetiredDialect", flags, err)
		}
		_, _ = DecodeRegionInto(nil, b, &ahead, DecodeOptions{})
	})
}
