package ctxmodel

import (
	"fmt"
	"sync"

	"dbgc/internal/arith"
	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// Context-modeled occupancy stream (container v5). The layout is:
//
//	feats   byte     feature mask (Features bits; unknown bits are corrupt)
//	nctx    uvarint  context count, must equal feats.Contexts()
//	shards  ...      the arith shard framing over the occupancy codes
//
// Every context feature derives from structure that is already decoded when
// the symbol arrives — the parent's code (one level up), the node's octant
// (implied by the parent's code), the previous code at the same level, and
// the depth — so the decoder replays the breadth-first construction in
// lockstep with the arithmetic decode. The replay makes shard decode
// inherently sequential (a shard's contexts depend on every earlier
// shard's codes); the bank still resets per shard so the bytes match the
// shard-parallel encoder.

// occReplay tracks the breadth-first structural state that yields each
// node's context features. The encoder drives it over the full occupancy
// sequence up front (the tree is known); the decoder advances it one
// decoded code at a time.
type occReplay struct {
	parent []byte  // parent occupancy code per node slot
	octant []uint8 // child index within the parent per node slot
	prev   []byte  // previous same-level code (encode-side aux, for shards)
	drem   []uint8 // remaining-depth bucket (encode-side aux)

	n, depth         int
	w                int // next child slot to assign
	d                int // current level
	lvlStart, lvlEnd int
}

var replayPool = sync.Pool{New: func() any { return new(occReplay) }}

func getReplay(n, depth int, aux bool) *occReplay {
	r := replayPool.Get().(*occReplay)
	r.parent = grow(r.parent, n)
	r.octant = grow(r.octant, n)
	if aux {
		r.prev = grow(r.prev, n)
		r.drem = grow(r.drem, n)
	}
	if n > 0 {
		r.parent[0], r.octant[0] = 0, 0
	}
	r.n, r.depth = n, depth
	r.w, r.d = 1, 0
	r.lvlStart, r.lvlEnd = 0, 1
	return r
}

func putReplay(r *occReplay) { replayPool.Put(r) }

// features returns the context features of node i given the codes decoded
// so far (occ[:i] are valid). Call with ascending i, each followed by one
// observe. On structurally impossible streams (a corrupt decode can imply
// fewer nodes than the header claims) the features degrade to zero; the
// octree-level replay rejects such streams after the fact.
func (r *occReplay) features(i int, occ []byte) (parent byte, octant uint8, prev byte, drem uint8) {
	for i >= r.lvlEnd && r.lvlEnd > r.lvlStart {
		r.d++
		r.lvlStart, r.lvlEnd = r.lvlEnd, r.w
	}
	if i < r.w {
		parent, octant = r.parent[i], r.octant[i]
	}
	if i > r.lvlStart && i < r.lvlEnd {
		prev = occ[i-1]
	}
	if rem := r.depth - 1 - r.d; rem > 0 {
		if rem > 3 {
			rem = 3
		}
		drem = uint8(rem)
	}
	return parent, octant, prev, drem
}

// observe accounts node i's code, assigning parent/octant slots to its
// children (when they are internal nodes, i.e. above the leaf level).
func (r *occReplay) observe(code byte) {
	if r.d+1 >= r.depth {
		return
	}
	for c := 0; c < 8; c++ {
		if code&(1<<uint(c)) == 0 {
			continue
		}
		if r.w >= r.n {
			return
		}
		r.parent[r.w] = code
		r.octant[r.w] = uint8(c)
		r.w++
	}
}

// AppendOcc appends the context-modeled coding of the breadth-first
// occupancy sequence occ (an octree of the given depth) under feats,
// sharded into shards independently coded shards. The bytes depend only on
// (occ, depth, feats, shards).
func AppendOcc(dst, occ []byte, depth int, feats Features, shards int) []byte {
	feats &= FeatAll
	dst = append(dst, byte(feats))
	dst = varint.AppendUint(dst, uint64(feats.Contexts()))

	// Feature pass: the encoder knows the whole tree, so per-node features
	// land in flat arrays and the shard workers index them freely.
	r := getReplay(len(occ), depth, true)
	for i, code := range occ {
		_, _, prev, drem := r.features(i, occ)
		r.prev[i], r.drem[i] = prev, drem
		r.observe(code)
	}

	dst = arith.AppendSharded(dst, len(occ), shards, func(lo, hi int, out []byte) []byte {
		bank := GetBank(feats.Contexts(), 256)
		e := arith.GetEncoder()
		for i := lo; i < hi; i++ {
			sym := occ[i]
			if feats&FeatOctant != 0 {
				sym = Reflect(sym, r.octant[i])
			}
			bank.Encode(e, feats.Index(r.parent[i], r.octant[i], r.prev[i], r.drem[i]), int(sym))
		}
		out = e.AppendFinish(out)
		arith.PutEncoder(e)
		PutBank(bank)
		return out
	})
	putReplay(r)
	return dst
}

// DecodeOcc inverts AppendOcc, decoding exactly n occupancy codes of a
// depth-level octree and charging nodes and context-table memory against b.
// Shards decode one after the other: the context replay threads structural
// state from each shard into the next (see DESIGN.md §15), unlike the
// order-0 sharded streams.
func DecodeOcc(data []byte, n, depth int, b *declimits.Budget) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing feature byte", ErrCorrupt)
	}
	feats := Features(data[0])
	if feats&^FeatAll != 0 {
		return nil, fmt.Errorf("%w: unknown context features %#x", ErrCorrupt, byte(feats))
	}
	data = data[1:]
	nctx, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("ctxmodel: context count: %w", err)
	}
	data = data[used:]
	if nctx != uint64(feats.Contexts()) {
		return nil, fmt.Errorf("%w: %d contexts declared, features imply %d", ErrCorrupt, nctx, feats.Contexts())
	}
	// +1 for the shared seeding model the bank always carries.
	if err := b.Contexts(int64(nctx)+1, ModelBytes256); err != nil {
		return nil, err
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	r := getReplay(n, depth, false)
	defer putReplay(r)
	bank := GetBank(feats.Contexts(), 256)
	defer PutBank(bank)
	shards, err := arith.ParseShards(data, b)
	if err != nil {
		return nil, err
	}
	decodeShard := func(shard []byte, lo, hi int) error {
		bank.Reset()
		d := arith.GetDecoder(shard)
		defer arith.PutDecoder(d)
		for i := lo; i < hi; i++ {
			parent, octant, prev, drem := r.features(i, out)
			sym, err := bank.Decode(d, feats.Index(parent, octant, prev, drem))
			if err != nil {
				return fmt.Errorf("ctxmodel: occupancy %d/%d: %w", i, n, err)
			}
			code := byte(sym)
			if feats&FeatOctant != 0 {
				code = Reflect(code, octant)
			}
			out[i] = code
			r.observe(code)
		}
		return nil
	}
	for i, shard := range shards {
		lo, hi := arith.ShardRange(n, len(shards), i)
		if err := decodeShard(shard, lo, hi); err != nil {
			return nil, err
		}
	}
	return out, nil
}
