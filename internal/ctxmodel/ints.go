package ctxmodel

import (
	"encoding/binary"
	"errors"
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
// bucket; continuation bytes share one model.

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

// ErrShardCount reports a framed stream that declares other than one shard:
// what the retired sharded dialect wrote.
var ErrShardCount = errors.New("ctxmodel: stream cut into other than one shard")

// AppendIntsCtx appends the context-modeled zigzag coding of vs, behind the
// one-shard framing the stream kept from the retired sharded dialect: a
// shard count of 1 and the payload's length, both uvarints, before the
// payload.
func AppendIntsCtx(dst []byte, vs []int64) []byte {
	bank := GetBank(IntContexts, 256)
	cont := arith.GetModel(256)
	e := arith.GetEncoder()
	prev := 0
	for _, v := range vs {
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
	at := len(dst)
	dst = e.AppendFinish(dst)
	arith.PutEncoder(e)
	arith.PutModel(cont)
	PutBank(bank)
	var head [1 + binary.MaxVarintLen64]byte
	return slices.Insert(dst, at, varint.AppendUint(append(head[:0], 1), uint64(len(dst)-at))...)
}

// DecodeIntsCtx inverts AppendIntsCtx, appending exactly n integers to dst
// and charging them (plus the context tables) against b.
func DecodeIntsCtx(dst []int64, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	return DecodeIntsCtxPrefix(dst, data, n, n, b)
}

// DecodeIntsCtxPrefix is DecodeIntsCtx stopping after the first keep of the
// stream's n integers, keep at most n: it appends those to dst and leaves
// the rest of the payload unread. It charges b for all n.
func DecodeIntsCtxPrefix(dst []int64, data []byte, n, keep int, b *declimits.Budget) ([]int64, error) {
	// +2 for the shared seeding model and the continuation model.
	if err := b.Contexts(IntContexts+2, ModelBytes256); err != nil {
		return nil, err
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, err
	}
	bank := GetBank(IntContexts, 256)
	cont := arith.GetModel(256)
	d := arith.GetDecoder(payload)
	defer func() {
		arith.PutDecoder(d)
		arith.PutModel(cont)
		PutBank(bank)
	}()
	at := len(dst)
	out := slices.Grow(dst, keep)[:at+keep]
	vals := out[at:]
	prev := 0
	for k := range vals {
		sym, err := bank.Decode(d, prev)
		if err != nil {
			return nil, fmt.Errorf("ctxmodel: int %d/%d: %w", k, n, err)
		}
		z := uint64(sym & 0x7f)
		shift := uint(7)
		for sym >= 0x80 {
			if shift >= 64 {
				return nil, fmt.Errorf("%w: varint overflow", ErrCorrupt)
			}
			sym, err = d.Decode(cont)
			if err != nil {
				return nil, fmt.Errorf("ctxmodel: int %d/%d: %w", k, n, err)
			}
			z |= uint64(sym&0x7f) << shift
			shift += 7
		}
		vals[k] = varint.Unzigzag(z)
		prev = MagBucket(z)
	}
	return out, nil
}

// unframe returns the payload of a stream in the one-shard framing.
func unframe(data []byte) ([]byte, error) {
	shards, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("ctxmodel: shard count: %w", err)
	}
	if shards != 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrShardCount, shards)
	}
	data = data[used:]
	l, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("ctxmodel: shard length: %w", err)
	}
	if data = data[used:]; l != uint64(len(data)) {
		return nil, fmt.Errorf("%w: a %d-byte shard in %d bytes", ErrCorrupt, l, len(data))
	}
	return data, nil
}
