package arith

import (
	"fmt"
	"sync"

	"dbgc/internal/declimits"
	"dbgc/internal/par"
	"dbgc/internal/varint"
)

// Sharded entropy streams (container v3). A sharded stream splits one
// symbol sequence into S contiguous shards, each coded by its own adaptive
// arithmetic coder, so encode and decode parallelize across cores while the
// sequence semantics stay identical. The framing is:
//
//	S       uvarint   shard count (>= 1)
//	len[i]  uvarint   compressed byte length of shard i, S times
//	payload bytes     the S shard streams, concatenated in order
//
// The element split is deterministic and derived from the out-of-band
// element count n that every DBGC stream already records next to its
// payload: shard i covers elements [i*n/S, (i+1)*n/S). Same input and same
// shard count therefore always produce the same bytes; the shard count is
// the only new degree of freedom, and it is recorded in the stream.
//
// Each shard restarts its adaptive model, which costs a few bytes of
// adaptation per shard; ClampShards keeps shards large enough that the
// overhead stays well under the ±0.5% ratio budget.

// MaxShards bounds the shard count a stream may declare. It is a
// corruption backstop, far above any useful parallelism (shards beyond the
// core count only add model-restart overhead).
const MaxShards = 4096

// minShardElems is the smallest element count worth a dedicated shard.
// Each shard restarts its adaptive model, which costs roughly 40-60 bytes
// of re-adaptation for the 256-symbol alphabets; one shard per 8Ki
// elements keeps that overhead under ~0.1% of a typical stream while still
// unlocking a shard per core on full-size LiDAR frames. Below the
// threshold the restart plus goroutine fork-join cost more than the
// parallelism returns.
const minShardElems = 8192

// ClampShards returns the effective shard count for n elements: at least
// 1, at most MaxShards, and never more than one shard per minShardElems
// elements. The clamp depends only on (n, shards), preserving determinism.
func ClampShards(shards, n int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > MaxShards {
		shards = MaxShards
	}
	if max := n / minShardElems; shards > max {
		shards = max
	}
	if shards < 1 {
		return 1
	}
	return shards
}

// ShardRange returns the element range [lo, hi) of shard i of s over n
// elements. Computed in 64-bit so n near MaxInt cannot overflow.
func ShardRange(n, s, i int) (lo, hi int) {
	lo = int(int64(n) * int64(i) / int64(s))
	hi = int(int64(n) * int64(i+1) / int64(s))
	return lo, hi
}

// shardBufPool recycles the per-shard staging buffers of the parallel
// encoders. Each shard encodes into its own pooled buffer (no two shards
// ever share one, so real parallelism brings no shared-scratch writes) and
// the buffer returns to the pool after its bytes are copied out.
var shardBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8192)
	return &b
}}

// AppendSharded frames n elements into the shard layout, encoding each
// shard with encode(lo, hi, dst) (which appends shard [lo, hi) to dst and
// returns the extended slice); the shards encode through par.Each. The
// framing knows nothing of what a shard holds: internal/streamcodec puts
// any of its coders inside it, and ctxmodel its context-modeled ones.
func AppendSharded(dst []byte, n, shards int, encode func(lo, hi int, dst []byte) []byte) []byte {
	s := ClampShards(shards, n)
	dst = varint.AppendUint(dst, uint64(s))
	if s == 1 {
		// Single shard: encode straight into the output after its length.
		// The length must precede the payload, so stage through a pooled
		// buffer like the multi-shard path.
		bp := shardBufPool.Get().(*[]byte)
		part := encode(0, n, (*bp)[:0])
		dst = varint.AppendUint(dst, uint64(len(part)))
		dst = append(dst, part...)
		*bp = part[:0]
		shardBufPool.Put(bp)
		return dst
	}
	bufs := make([]*[]byte, s)
	parts := make([][]byte, s)
	par.Each(s, func(i int) {
		lo, hi := ShardRange(n, s, i)
		bufs[i] = shardBufPool.Get().(*[]byte)
		parts[i] = encode(lo, hi, (*bufs[i])[:0])
	})
	for i := 0; i < s; i++ {
		dst = varint.AppendUint(dst, uint64(len(parts[i])))
	}
	for i := 0; i < s; i++ {
		dst = append(dst, parts[i]...)
		*bufs[i] = parts[i][:0]
		shardBufPool.Put(bufs[i])
	}
	return dst
}

// parseShards splits a sharded stream into its S payloads, validating the
// declared lengths against the available bytes and b's shard cap. The
// returned slices alias data.
func parseShards(data []byte, b *declimits.Budget) ([][]byte, error) {
	s64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("arith: shard count: %w", err)
	}
	data = data[used:]
	if s64 < 1 || s64 > MaxShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrCorrupt, s64)
	}
	if err := b.Shards(int64(s64)); err != nil {
		return nil, err
	}
	s := int(s64)
	lens := make([]uint64, s)
	var total uint64
	for i := range lens {
		l, used, err := varint.Uint(data)
		if err != nil {
			return nil, fmt.Errorf("arith: shard %d length: %w", i, err)
		}
		data = data[used:]
		// Guard the running sum against wrap before comparing to len(data).
		if l > uint64(len(data)) || total+l > uint64(len(data)) {
			return nil, fmt.Errorf("%w: shard %d truncated", ErrCorrupt, i)
		}
		lens[i] = l
		total += l
	}
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("%w: %d trailing bytes after shards", ErrCorrupt, uint64(len(data))-total)
	}
	shards := make([][]byte, s)
	for i, l := range lens {
		shards[i] = data[:l]
		data = data[l:]
	}
	return shards, nil
}

// DecodeSharded parses the shard framing, validating the declared shard
// count and lengths against b, and runs decode(i, shard, lo, hi) for every
// shard through par.Each, so the stream's declared count never sets the
// width. The error of the lowest failing shard wins. The counterpart of
// AppendSharded.
func DecodeSharded(data []byte, n int, b *declimits.Budget, decode func(i int, shard []byte, lo, hi int) error) error {
	shards, err := parseShards(data, b)
	if err != nil {
		return err
	}
	s := len(shards)
	if s == 1 {
		return decode(0, shards[0], 0, n)
	}
	errs := make([]error, s)
	par.Each(s, func(i int) {
		defer declimits.Recover(&errs[i], ErrCorrupt)
		lo, hi := ShardRange(n, s, i)
		errs[i] = decode(i, shards[i], lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
