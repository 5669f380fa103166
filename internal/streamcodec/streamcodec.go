// Package streamcodec owns one decision: which coder a stream gets. The
// paper gives every stream exactly one (§3.5 steps 6–9: Deflate on θ,
// arithmetic coding on φ, r and the lengths); the container dialects that
// grew since (sharded v3, blockpacked v4, context-modeled v5) made the
// answer depend on the frame's options. The answer is a Codec; Dialect.Codec
// is the whole stream × dialect → coder table; and AppendInts / DecodeInts,
// AppendUints / DecodeUints and AppendCodes / DecodeCodes run any Codec over
// one element type. octree, quadtree, outlier and sparse name a stream's
// class and call these; none of them imports a coder.
//
// Every encoder appends the stream to dst and returns the extended slice;
// every decoder appends exactly n elements to dst, charging them — and
// whatever else the coder allocates — against b before it allocates (nil is
// unlimited), and fails closed on a stream that is not what the codec
// writes for n elements. Element counts travel out of band.
package streamcodec

import (
	"errors"
	"fmt"
	"slices"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
)

// ErrCorrupt reports a stream no encoder of its codec writes.
var ErrCorrupt = errors.New("streamcodec: corrupt stream")

// Codec names the coder of one stream.
type Codec uint8

const (
	// Arith is order-0 adaptive arithmetic coding: of the codes themselves,
	// or of the LEB128 bytes (zigzag for signed) of integers.
	Arith Codec = iota
	// ArithSharded is Arith inside the shard framing of internal/arith:
	// contiguous shards, each with its own coder.
	ArithSharded
	// DeflateVarint is the zigzag LEB128 bytes as one raw DEFLATE stream.
	DeflateVarint
	// BlockPack is internal/blockpack's 128-value bit-packed blocks.
	BlockPack
	// BlockPackSharded is BlockPack inside the shard framing.
	BlockPackSharded
	// Ctx is internal/ctxmodel's magnitude-bucket contexts, always inside
	// the shard framing.
	Ctx
)

func (c Codec) String() string {
	names := [...]string{"arith", "arith-sharded", "deflate-varint", "blockpack", "blockpack-sharded", "ctx"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// unframed returns the coder ArithSharded or BlockPackSharded put inside
// each shard.
func (c Codec) unframed() Codec {
	if c == BlockPackSharded {
		return BlockPack
	}
	return Arith
}

// Class says what a stream carries, as far as choosing its coder goes.
type Class uint8

const (
	// Bulk is a section's high-volume integers: octree and quadtree leaf
	// counts, outlier Δz, and the sparse φ tails and radial residuals.
	Bulk Class = iota
	// Occupancy is a tree's breadth-first occupancy codes.
	Occupancy
	// Lengths is a radial group's polyline lengths.
	Lengths
	// ThetaHeads and ThetaTails are a group's azimuth streams (step 6).
	ThetaHeads
	ThetaTails
	// PhiHeads is a group's polar head deltas (step 7); the φ tails are Bulk.
	PhiHeads
	// Refs is a group's reference symbols L_ref (step 8).
	Refs
)

// Dialect is what a frame's options say about coders, as the container
// records it: Options.Shards > 1 (v3), BlockPack (v4), ContextModel (v5).
type Dialect struct {
	Sharded, BlockPack, Context bool
}

// coders is the stream × dialect → coder table. BlockPack decides alone:
// with it Sharded changes no coder (how many shards a framed stream is cut
// into is the encoder's argument, and the stream records it). Only the
// 4-symbol reference stream and the occupancy codes stay
// on the arithmetic coder there, where sub-bit symbols beat any bit
// packing; the tiny head streams pack unframed.
var coders = [...]struct{ plain, sharded, blockpack Codec }{
	Bulk:       {Arith, ArithSharded, BlockPackSharded},
	Occupancy:  {Arith, ArithSharded, ArithSharded},
	Lengths:    {Arith, Arith, BlockPackSharded},
	ThetaHeads: {DeflateVarint, DeflateVarint, BlockPack},
	ThetaTails: {DeflateVarint, DeflateVarint, BlockPackSharded},
	PhiHeads:   {Arith, Arith, BlockPack},
	Refs:       {Arith, Arith, Arith},
}

// Codec returns the coder of a stream of class c under d. Context does not
// enter: it lets a stream take another coder than this one (Rivals and
// AppendSmallestInts here, the occupancy method marker in internal/octree),
// and the stream then says so itself.
func (d Dialect) Codec(c Class) Codec {
	switch row := coders[c]; {
	case d.BlockPack:
		return row.blockpack
	case d.Sharded:
		return row.sharded
	default:
		return row.plain
	}
}

// highVolume tells the streams with an element per point from those with
// one per polyline, which are never worth a second shard.
func (c Class) highVolume() bool { return c == Bulk || c == ThetaTails }

// AppendInts appends vs coded by c. shards is how many shards a framed
// codec cuts the stream into at most (arith.ClampShards); the others ignore
// it.
func AppendInts(dst []byte, c Codec, vs []int64, shards int) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressInts(dst, vs)
	case DeflateVarint:
		return appendDeflatedInts(dst, vs)
	case BlockPack:
		return blockpack.PackInt64(dst, vs)
	case Ctx:
		return ctxmodel.AppendIntsCtx(dst, vs, shards)
	case ArithSharded, BlockPackSharded:
		return arith.AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
			return AppendInts(out, c.unframed(), vs[lo:hi], 0)
		})
	}
	panic(fmt.Sprintf("streamcodec: %v does not code signed integers", c))
}

// DecodeInts inverts AppendInts.
func DecodeInts(dst []int64, c Codec, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	switch c {
	case Arith:
		return arith.AppendDecompressInts(dst, data, n, b)
	case DeflateVarint:
		return inflateInts(dst, data, n, b)
	case BlockPack:
		return blockpack.UnpackInt64(dst, data, n, b)
	case Ctx:
		return ctxmodel.DecodeIntsCtx(dst, data, n, b)
	case ArithSharded, BlockPackSharded:
		return decodeFramed(dst, data, n, b, func(window []int64, shard []byte) error {
			_, err := DecodeInts(window, c.unframed(), shard, cap(window), nil)
			return err
		})
	}
	return nil, fmt.Errorf("%w: %v does not code signed integers", ErrCorrupt, c)
}

// DecodeIntsPrefix is DecodeInts for a caller that needs only the first
// keep of the stream's n integers, keep at most n. The plain arithmetic
// coder and the context-modeled one stop after them; the others — DEFLATE,
// blockpack, and the shard framing around the arithmetic coder — decode all
// n. Either way it returns at least keep integers, and it charges b for all
// n.
func DecodeIntsPrefix(dst []int64, c Codec, data []byte, n, keep int, b *declimits.Budget) ([]int64, error) {
	if keep < 0 || keep > n {
		return nil, fmt.Errorf("%w: prefix of %d of %d elements", ErrCorrupt, keep, n)
	}
	switch c {
	case Arith:
		if err := b.Nodes(int64(n - keep)); err != nil {
			return nil, err
		}
		return arith.AppendDecompressInts(dst, data, keep, b)
	case Ctx:
		return ctxmodel.DecodeIntsCtxPrefix(dst, data, n, keep, b)
	}
	return DecodeInts(dst, c, data, n, b)
}

// AppendUints is AppendInts for unsigned sequences (lengths, counts), which
// the arithmetic and blockpack coders take.
func AppendUints(dst []byte, c Codec, vs []uint64, shards int) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressUints(dst, vs)
	case BlockPack:
		return blockpack.PackUint64(dst, vs)
	case ArithSharded, BlockPackSharded:
		return arith.AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
			return AppendUints(out, c.unframed(), vs[lo:hi], 0)
		})
	}
	panic(fmt.Sprintf("streamcodec: %v does not code unsigned integers", c))
}

// DecodeUints inverts AppendUints.
func DecodeUints(dst []uint64, c Codec, data []byte, n int, b *declimits.Budget) ([]uint64, error) {
	switch c {
	case Arith:
		return arith.AppendDecompressUints(dst, data, n, b)
	case BlockPack:
		return blockpack.UnpackUint64(dst, data, n, b)
	case ArithSharded, BlockPackSharded:
		return decodeFramed(dst, data, n, b, func(window []uint64, shard []byte) error {
			_, err := DecodeUints(window, c.unframed(), shard, cap(window), nil)
			return err
		})
	}
	return nil, fmt.Errorf("%w: %v does not code unsigned integers", ErrCorrupt, c)
}

// AppendCodes appends codes, symbols of {0,...,alphabet-1} with alphabet at
// most 256, which only the arithmetic coder takes.
func AppendCodes(dst []byte, c Codec, codes []byte, alphabet, shards int) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressCodes(dst, codes, alphabet)
	case ArithSharded:
		return arith.AppendSharded(dst, len(codes), shards, func(lo, hi int, out []byte) []byte {
			return arith.AppendCompressCodes(out, codes[lo:hi], alphabet)
		})
	}
	panic(fmt.Sprintf("streamcodec: %v does not code symbols", c))
}

// DecodeCodes inverts AppendCodes.
func DecodeCodes(dst []byte, c Codec, data []byte, n, alphabet int, b *declimits.Budget) ([]byte, error) {
	switch c {
	case Arith:
		return arith.AppendDecompressCodes(dst, data, n, alphabet, b)
	case ArithSharded:
		return decodeFramed(dst, data, n, b, func(window, shard []byte) error {
			_, err := arith.AppendDecompressCodes(window, shard, cap(window), alphabet, nil)
			return err
		})
	}
	return nil, fmt.Errorf("%w: %v does not code symbols", ErrCorrupt, c)
}

// decodeFramed appends the n elements of a stream in the shard framing to
// dst: it charges them, makes room for them, and calls decode once per
// shard with the shard's bytes and its window of that room — empty, with
// capacity for exactly the shard's elements, which decode appends. The
// shards decode side by side.
func decodeFramed[T any](dst []T, data []byte, n int, b *declimits.Budget, decode func(window []T, shard []byte) error) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative element count", ErrCorrupt)
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	at := len(dst)
	out := slices.Grow(dst, n)[:at+n]
	err := arith.DecodeSharded(data, n, b, func(_ int, shard []byte, lo, hi int) error {
		return decode(out[at+lo:at+lo:at+hi], shard)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
