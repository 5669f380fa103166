// Package streamcodec owns one decision: which coder a stream gets. The
// paper gives every stream exactly one (§3.5 steps 6–9: Deflate on θ,
// arithmetic coding on φ, r and the lengths), and Class.Own is that table.
// The context-modeled container (v5, the default) lets the sparse angular
// streams compete besides: each is coded by whichever of its own coder,
// plain arithmetic coding and the magnitude-bucket context coder of
// internal/ctxmodel is priced smallest (AppendSmallestInts), and the stream
// names the winner by a marker. AppendInts / DecodeInts, AppendUints /
// DecodeUints and AppendCodes / DecodeCodes run any Codec over one element
// type. octree, quadtree, outlier and sparse name a stream's class and call
// these; none of them imports a coder.
//
// The sharded (v3) and blockpacked (v4) dialects are retired: no encoder
// writes them, and every decoder refuses them with ErrRetiredDialect. Their
// codecs (retired.go) are kept, reached by nothing but their tests.
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

	"dbgc/internal/arith"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
)

// ErrCorrupt reports a stream no encoder of its codec writes.
var ErrCorrupt = errors.New("streamcodec: corrupt stream")

// ErrRetiredDialect reports input in a retired dialect: a container of
// version 3 (sharded) or 4 (blockpacked), a v5 container or sparse stream
// that declares either, a context-modeled stream cut into other than one
// shard, or options that ask an encoder for one of them.
var ErrRetiredDialect = errors.New("retired dialect: sharded (v3) and blockpacked (v4) streams are no longer read or written")

// Codec names the coder of one stream.
type Codec uint8

const (
	// Arith is order-0 adaptive arithmetic coding: of the codes themselves,
	// or of the LEB128 bytes (zigzag for signed) of integers.
	Arith Codec = iota
	// DeflateVarint is the zigzag LEB128 bytes as one raw DEFLATE stream.
	DeflateVarint
	// Ctx is internal/ctxmodel's magnitude-bucket contexts, behind its
	// one-shard framing.
	Ctx
)

func (c Codec) String() string {
	names := [...]string{"arith", "deflate-varint", "ctx", "arith-sharded", "blockpack", "blockpack-sharded"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
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

// own is the stream → coder table of §3.5.
var own = [...]Codec{
	Bulk:       Arith,
	Occupancy:  Arith,
	Lengths:    Arith,
	ThetaHeads: DeflateVarint,
	ThetaTails: DeflateVarint,
	PhiHeads:   Arith,
	Refs:       Arith,
}

// Own returns the coder of a stream of class c. The context-modeled
// container lets a stream take another one (Rivals and AppendSmallestInts
// here, the occupancy method marker in internal/octree), and the stream then
// says so itself.
func (c Class) Own() Codec { return own[c] }

// AppendInts appends vs coded by c.
func AppendInts(dst []byte, c Codec, vs []int64) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressInts(dst, vs)
	case DeflateVarint:
		return appendDeflatedInts(dst, vs)
	case Ctx:
		return ctxmodel.AppendIntsCtx(dst, vs)
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
	case Ctx:
		return decodeCtx(dst, data, n, n, b)
	}
	return decodeRetiredInts(dst, c, data, n, b)
}

// DecodeIntsPrefix is DecodeInts for a caller that needs only the first
// keep of the stream's n integers, keep at most n. The plain arithmetic
// coder and the context-modeled one stop after them; DEFLATE decodes all n.
// Either way it returns at least keep integers, and it charges b for all n.
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
		return decodeCtx(dst, data, n, keep, b)
	}
	return DecodeInts(dst, c, data, n, b)
}

// decodeCtx is ctxmodel.DecodeIntsCtxPrefix, a framing of more than one
// shard being the retired sharded dialect's.
func decodeCtx(dst []int64, data []byte, n, keep int, b *declimits.Budget) ([]int64, error) {
	out, err := ctxmodel.DecodeIntsCtxPrefix(dst, data, n, keep, b)
	if errors.Is(err, ctxmodel.ErrShardCount) {
		err = fmt.Errorf("%w: %w", ErrRetiredDialect, err)
	}
	return out, err
}

// AppendUints is AppendInts for unsigned sequences (lengths, counts), which
// the arithmetic coder takes.
func AppendUints(dst []byte, c Codec, vs []uint64) []byte {
	if c == Arith {
		return arith.AppendCompressUints(dst, vs)
	}
	panic(fmt.Sprintf("streamcodec: %v does not code unsigned integers", c))
}

// DecodeUints inverts AppendUints.
func DecodeUints(dst []uint64, c Codec, data []byte, n int, b *declimits.Budget) ([]uint64, error) {
	if c == Arith {
		return arith.AppendDecompressUints(dst, data, n, b)
	}
	return decodeRetiredUints(dst, c, data, n, b)
}

// AppendCodes appends codes, symbols of {0,...,alphabet-1} with alphabet at
// most 256, which only the arithmetic coder takes.
func AppendCodes(dst []byte, c Codec, codes []byte, alphabet int) []byte {
	if c == Arith {
		return arith.AppendCompressCodes(dst, codes, alphabet)
	}
	panic(fmt.Sprintf("streamcodec: %v does not code symbols", c))
}

// DecodeCodes inverts AppendCodes.
func DecodeCodes(dst []byte, c Codec, data []byte, n, alphabet int, b *declimits.Budget) ([]byte, error) {
	if c == Arith {
		return arith.AppendDecompressCodes(dst, data, n, alphabet, b)
	}
	return decodeRetiredCodes(dst, c, data, n, alphabet, b)
}
