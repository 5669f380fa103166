// Package ctxmodel implements table-driven context modeling for the
// adaptive arithmetic coder: instead of one order-0 model per stream,
// symbols are coded under a bank of per-context models, the context derived
// from what is already transmitted. Two coders use it: internal/gpcc's
// neighbour-mask occupancy contexts, and the magnitude-bucket integer coder
// of this package (ints.go), one of the rivals internal/streamcodec prices
// for the sparse angular streams.
//
// Splitting a short stream across many adaptive models normally loses:
// each model pays the full uniform-prior adaptation cost, and the dilution
// exceeds the conditional-entropy gain. Snapshot seeding answers that: a
// context's model is cloned lazily from a running shared model the first
// time the context appears, so it starts from the stream's learned global
// distribution instead of the uniform prior. The shared model tracks every
// symbol until all contexts are live, then stops updating (encoder and
// decoder apply the same rule, so they stay in lockstep).
//
// Context state is per-shard: every shard of a sharded stream takes a bank
// of its own, so shards encoding and decoding side by side write and read
// the same bytes as one after the other.
package ctxmodel

import (
	"errors"
	"sync"

	"dbgc/internal/arith"
)

// ErrCorrupt reports a malformed context-modeled stream.
var ErrCorrupt = errors.New("ctxmodel: corrupt stream")

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

// ModelBytes256 is the memory one 256-symbol context model costs (the
// count table plus header), charged per context against DecodeLimits.
const ModelBytes256 = 1056

// Bank is a set of per-context adaptive models over one
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
	// Every context pending, the shared model uniform.
	clear(b.live)
	b.pending = contexts
	b.shared.Reset()
}

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
