// Package ctxmodel implements table-driven context modeling for the
// adaptive arithmetic coder — a non-neural analogue of OctSqueeze's context
// model (Huang et al., PAPERS.md). Instead of one order-0 model per stream,
// symbols are coded under a bank of per-context models, where the context is
// derived from already-transmitted structure: for octree occupancy codes the
// parent's occupancy byte, the node's octant, the previously decoded sibling
// code, and the depth bucket; for integer delta streams the magnitude bucket
// of the previous value.
//
// Splitting a short stream (a city frame carries ~24k occupancy codes)
// across many 256-ary adaptive models normally loses: each model pays the
// full uniform-prior adaptation cost, and the dilution exceeds the
// conditional-entropy gain (internal/gpcc's neighbour-mask experiment hit
// exactly this). Two mechanisms make contexts win here:
//
//   - Snapshot seeding: a context's model is cloned lazily from a running
//     shared model the first time the context appears, so it starts from
//     the stream's learned global distribution instead of the uniform
//     prior. The shared model tracks every symbol until all contexts are
//     live, then stops updating (encoder and decoder apply the same rule,
//     so they stay in lockstep).
//   - Octant reflection: occupancy bits are mirrored along the axes where
//     the node sits on the positive side of its parent, canonicalizing
//     surface orientation so geometrically equivalent codes share symbols.
//
// Context state is per-shard: every shard of a sharded stream restarts its
// bank, so shards encoding and decoding side by side write and read the
// same bytes as one after the other.
package ctxmodel

import (
	"errors"
	"sync"

	"dbgc/internal/arith"
)

// ErrCorrupt reports a malformed context-modeled stream.
var ErrCorrupt = errors.New("ctxmodel: corrupt stream")

// Features selects which structural signals form the occupancy context.
// The feature byte travels in the stream header, so the decoder derives the
// identical context indices without out-of-band configuration.
type Features uint8

const (
	// FeatOctant mirrors each occupancy code along the axes where its node
	// lies on the positive side of its parent (octant reflection). It
	// canonicalizes orientation rather than multiplying contexts.
	FeatOctant Features = 1 << iota
	// FeatParent keys the context on the parent-adjacency mask: which of
	// the node's three face-sharing siblings exist in the parent's
	// occupancy code (8 contexts).
	FeatParent
	// FeatSibling keys the context on the popcount bucket of the
	// previously decoded occupancy code at the same level (4 contexts).
	FeatSibling
	// FeatDepth keys the context on the remaining-depth bucket,
	// min(3, levels above the leaves) (4 contexts).
	FeatDepth

	// FeatAll is every defined feature bit; stream headers carrying
	// unknown bits are corrupt.
	FeatAll = FeatOctant | FeatParent | FeatSibling | FeatDepth
)

// DefaultFeatures is the measured sweet spot on the KITTI-style benchmark
// frames: reflection plus the 8 adjacency contexts. The sibling and depth
// features lost the PR 10 ablation: on the reference frames their extra
// contexts dilute more than they sharpen (DESIGN.md §15).
const DefaultFeatures = FeatOctant | FeatParent

// Contexts returns the size of the context bank the feature set selects.
// FeatOctant remaps symbols and multiplies nothing.
func (f Features) Contexts() int {
	c := 1
	if f&FeatParent != 0 {
		c *= 8
	}
	if f&FeatSibling != 0 {
		c *= 4
	}
	if f&FeatDepth != 0 {
		c *= 4
	}
	return c
}

// Index maps one node's structural signals to its context index in
// [0, f.Contexts()).
func (f Features) Index(parent byte, octant uint8, prev byte, drem uint8) int {
	idx := 0
	if f&FeatParent != 0 {
		idx = idx<<3 | adjMask(parent, octant)
	}
	if f&FeatSibling != 0 {
		idx = idx<<2 | popBucket(prev)
	}
	if f&FeatDepth != 0 {
		idx = idx<<2 | int(drem)
	}
	return idx
}

// Reflect mirrors the occupancy code along the axes set in octant, so a
// node on the positive x side of its parent sees its children's x bits
// flipped (likewise y and z). It is an involution: Reflect(Reflect(c, o), o)
// == c, so encoder and decoder share one function.
func Reflect(code byte, octant uint8) byte {
	if octant&1 != 0 {
		code = (code&0xaa)>>1 | (code&0x55)<<1
	}
	if octant&2 != 0 {
		code = (code&0xcc)>>2 | (code&0x33)<<2
	}
	if octant&4 != 0 {
		code = code>>4 | code<<4
	}
	return code
}

// adjMask reports which of a node's three face-sharing siblings are present
// in the parent's occupancy code: bit 0 for the neighbor across x, bit 1
// across y, bit 2 across z. Occupied neighbors predict denser children on
// the shared face, which is what the 8 contexts separate.
func adjMask(parent byte, octant uint8) int {
	m := 0
	if parent&(1<<(octant^1)) != 0 {
		m |= 1
	}
	if parent&(1<<(octant^2)) != 0 {
		m |= 2
	}
	if parent&(1<<(octant^4)) != 0 {
		m |= 4
	}
	return m
}

// popBucket buckets the previously decoded sibling code by occupancy
// density: 0 (level start or empty), 1, 2, or 3+ occupied children.
func popBucket(prev byte) int {
	pop := 0
	for b := prev; b != 0; b &= b - 1 {
		pop++
	}
	if pop > 3 {
		pop = 3
	}
	return pop
}

// ModelBytes256 is the memory one 256-symbol context model costs (the
// count table plus header), charged per context against DecodeLimits.
const ModelBytes256 = 1056

// Bank is a resettable set of per-context adaptive models over one
// alphabet, plus the shared seeding model. Models materialize lazily: a
// context's model is cloned from the shared model's current state the first
// time the context is coded, and the shared model follows the stream until
// every context is live. A Bank is not safe for concurrent use; distinct
// Banks are independent.
type Bank struct {
	n       int
	models  []*arith.Model
	live    []bool
	pending int
	shared  *arith.Model
}

// NewBank returns a bank of contexts models over {0,...,n-1}, all in the
// seeded-on-first-use state. Prefer GetBank on hot paths.
func NewBank(contexts, n int) *Bank {
	b := &Bank{}
	b.init(contexts, n)
	return b
}

func (b *Bank) init(contexts, n int) {
	if b.n != n {
		// Alphabet changed: cached models are unusable.
		b.models = nil
		b.shared = nil
		b.n = n
	}
	if cap(b.models) < contexts {
		models := make([]*arith.Model, contexts)
		copy(models, b.models)
		b.models = models
		b.live = make([]bool, contexts)
	}
	b.models = b.models[:contexts]
	b.live = b.live[:contexts]
	if b.shared == nil {
		b.shared = arith.NewModel(n)
	}
	b.Reset()
}

// Reset restores the bank to its initial state — every context pending, the
// shared model uniform — as required at each shard boundary.
func (b *Bank) Reset() {
	for i := range b.live {
		b.live[i] = false
	}
	b.pending = len(b.live)
	b.shared.Reset()
}

// Contexts returns the bank's context count.
func (b *Bank) Contexts() int { return len(b.models) }

// model returns ctx's model, cloning it from the shared model on first use.
func (b *Bank) model(ctx int) *arith.Model {
	if !b.live[ctx] {
		m := b.models[ctx]
		if m == nil {
			m = arith.NewModel(b.n)
			b.models[ctx] = m
		}
		m.CopyFrom(b.shared)
		b.live[ctx] = true
		b.pending--
	}
	return b.models[ctx]
}

// Encode codes sym under context ctx.
func (b *Bank) Encode(e *arith.Encoder, ctx, sym int) {
	e.Encode(b.model(ctx), sym)
	if b.pending > 0 {
		b.shared.Update(sym)
	}
}

// Decode decodes the next symbol under context ctx, mirroring Encode's
// model state exactly.
func (b *Bank) Decode(d *arith.Decoder, ctx int) (int, error) {
	sym, err := d.Decode(b.model(ctx))
	if err == nil && b.pending > 0 {
		b.shared.Update(sym)
	}
	return sym, err
}

// bankPool recycles Banks — and, critically, the arith count tables
// inside them — across shards and frames. Reshaping a pooled bank to a
// different context count keeps the models already built.
var bankPool = sync.Pool{New: func() any { return new(Bank) }}

// GetBank returns a reset bank of contexts models over {0,...,n-1},
// reusing pooled model tables when possible. Return it with PutBank.
func GetBank(contexts, n int) *Bank {
	b := bankPool.Get().(*Bank)
	b.init(contexts, n)
	return b
}

// PutBank returns a bank obtained from GetBank to the pool.
func PutBank(b *Bank) {
	if b != nil {
		bankPool.Put(b)
	}
}

// grow returns s with length n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
