package ctxmodel

import (
	"fmt"
	"math/bits"
	"slices"

	"dbgc/internal/arith"
	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// Context-modeled integer streams. The sparse path's φ tails are runs of
// small quantized-angle deltas punctuated by polyline-boundary jumps; the
// magnitude of one delta strongly predicts the magnitude class of the next
// (a θ/φ-bucket context, after Sridhara et al.'s observation that the
// angular grid is locally regular). Values code as zigzag LEB128 through
// the arithmetic coder, like arith.AppendCompressInts, except the first
// byte of every value selects its model by the previous value's magnitude
// bucket; continuation bytes share one model. The bucket state and the
// bank reset at shard boundaries, so shards stay independently decodable
// and decode in parallel.

// IntContexts is the first-byte context count: zigzag bit-length buckets
// 0..6 plus "7 or more bits".
const IntContexts = 8

// MagBucket buckets a zigzag-mapped value by bit length, saturating at 7.
func MagBucket(z uint64) int {
	b := bits.Len64(z)
	if b > 7 {
		b = 7
	}
	return b
}

// AppendIntsCtx appends the context-modeled zigzag coding of vs, sharded
// into shards independently coded shards. The bytes depend only on
// (vs, shards).
func AppendIntsCtx(dst []byte, vs []int64, shards int) []byte {
	return arith.AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
		bank := GetBank(IntContexts, 256)
		cont := arith.GetModel(256)
		e := arith.GetEncoder()
		prev := 0
		for _, v := range vs[lo:hi] {
			z := varint.Zigzag(v)
			sym := int(z & 0x7f)
			rest := z >> 7
			if rest != 0 {
				sym |= 0x80
			}
			bank.Encode(e, prev, sym)
			for rest != 0 {
				sym = int(rest & 0x7f)
				rest >>= 7
				if rest != 0 {
					sym |= 0x80
				}
				e.Encode(cont, sym)
			}
			prev = MagBucket(z)
		}
		out = e.AppendFinish(out)
		arith.PutEncoder(e)
		arith.PutModel(cont)
		PutBank(bank)
		return out
	})
}

// DecodeIntsCtx inverts AppendIntsCtx, appending exactly n integers to dst
// and charging them (plus the context tables) against b.
func DecodeIntsCtx(dst []int64, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	return DecodeIntsCtxPrefix(dst, data, n, n, b)
}

// DecodeIntsCtxPrefix is DecodeIntsCtx stopping after the first keep of the
// stream's n integers, keep at most n: it appends those to dst and leaves
// the rest of the shard they end in, and the shards after it, unread. It
// charges b for all n.
func DecodeIntsCtxPrefix(dst []int64, data []byte, n, keep int, b *declimits.Budget) ([]int64, error) {
	// +2 for the shared seeding model and the continuation model.
	if err := b.Contexts(IntContexts+2, ModelBytes256); err != nil {
		return nil, err
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	at := len(dst)
	out := slices.Grow(dst, keep)[:at+keep]
	err := arith.DecodeSharded(data, n, b, func(_ int, shard []byte, lo, hi int) error {
		hi = min(hi, keep)
		if lo >= hi {
			return nil
		}
		bank := GetBank(IntContexts, 256)
		cont := arith.GetModel(256)
		d := arith.GetDecoder(shard)
		defer func() {
			arith.PutDecoder(d)
			arith.PutModel(cont)
			PutBank(bank)
		}()
		prev := 0
		for k := lo; k < hi; k++ {
			sym, err := bank.Decode(d, prev)
			if err != nil {
				return fmt.Errorf("ctxmodel: int %d/%d: %w", k, n, err)
			}
			z := uint64(sym & 0x7f)
			shift := uint(7)
			for sym >= 0x80 {
				if shift >= 64 {
					return fmt.Errorf("%w: varint overflow", ErrCorrupt)
				}
				sym, err = d.Decode(cont)
				if err != nil {
					return fmt.Errorf("ctxmodel: int %d/%d: %w", k, n, err)
				}
				z |= uint64(sym&0x7f) << shift
				shift += 7
			}
			out[at+k] = varint.Unzigzag(z)
			prev = MagBucket(z)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
