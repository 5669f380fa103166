package streamcodec

import (
	"fmt"
	"slices"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/declimits"
)

// The retired codecs: what the sharded (v3) and blockpacked (v4) dialects
// coded their streams with. No container selects one — Class.Own and
// Class.Marked name only Arith, DeflateVarint and Ctx, and every reader
// refuses those dialects before it reaches a stream — so nothing but their
// own tests calls them. They, internal/blockpack and internal/arith's shard
// framing are kept until a change of their own deletes them with those
// tests.
const (
	// ArithSharded is Arith inside the shard framing of internal/arith:
	// contiguous shards, each with its own coder.
	ArithSharded Codec = Ctx + 1 + iota
	// BlockPack is internal/blockpack's 128-value bit-packed blocks.
	BlockPack
	// BlockPackSharded is BlockPack inside the shard framing.
	BlockPackSharded
)

// unframed returns the coder ArithSharded or BlockPackSharded put inside
// each shard.
func (c Codec) unframed() Codec {
	if c == BlockPackSharded {
		return BlockPack
	}
	return Arith
}

// AppendRetiredInts appends vs coded by the retired codec c, cut into at
// most shards shards (arith.ClampShards) where c is framed.
func AppendRetiredInts(dst []byte, c Codec, vs []int64, shards int) []byte {
	switch c {
	case BlockPack:
		return blockpack.PackInt64(dst, vs)
	case ArithSharded, BlockPackSharded:
		return arith.AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
			if c == BlockPackSharded {
				return blockpack.PackInt64(out, vs[lo:hi])
			}
			return arith.AppendCompressInts(out, vs[lo:hi])
		})
	}
	panic(fmt.Sprintf("streamcodec: %v is no retired signed-integer codec", c))
}

// AppendRetiredUints is AppendRetiredInts for unsigned sequences.
func AppendRetiredUints(dst []byte, c Codec, vs []uint64, shards int) []byte {
	switch c {
	case BlockPack:
		return blockpack.PackUint64(dst, vs)
	case ArithSharded, BlockPackSharded:
		return arith.AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
			if c == BlockPackSharded {
				return blockpack.PackUint64(out, vs[lo:hi])
			}
			return arith.AppendCompressUints(out, vs[lo:hi])
		})
	}
	panic(fmt.Sprintf("streamcodec: %v is no retired unsigned-integer codec", c))
}

// AppendRetiredCodes is AppendRetiredInts for symbols, which only
// ArithSharded took.
func AppendRetiredCodes(dst []byte, c Codec, codes []byte, alphabet, shards int) []byte {
	if c == ArithSharded {
		return arith.AppendSharded(dst, len(codes), shards, func(lo, hi int, out []byte) []byte {
			return arith.AppendCompressCodes(out, codes[lo:hi], alphabet)
		})
	}
	panic(fmt.Sprintf("streamcodec: %v is no retired symbol codec", c))
}

// decodeRetiredInts inverts AppendRetiredInts.
func decodeRetiredInts(dst []int64, c Codec, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	switch c {
	case BlockPack:
		return blockpack.UnpackInt64(dst, data, n, b)
	case ArithSharded, BlockPackSharded:
		return decodeFramed(dst, data, n, b, func(window []int64, shard []byte) error {
			_, err := DecodeInts(window, c.unframed(), shard, cap(window), nil)
			return err
		})
	}
	return nil, fmt.Errorf("%w: %v does not code signed integers", ErrCorrupt, c)
}

// decodeRetiredUints inverts AppendRetiredUints.
func decodeRetiredUints(dst []uint64, c Codec, data []byte, n int, b *declimits.Budget) ([]uint64, error) {
	switch c {
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

// decodeRetiredCodes inverts AppendRetiredCodes.
func decodeRetiredCodes(dst []byte, c Codec, data []byte, n, alphabet int, b *declimits.Budget) ([]byte, error) {
	if c == ArithSharded {
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
