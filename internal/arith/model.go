// Package arith implements an adaptive arithmetic coder in the style of
// Witten, Neal, and Cleary, the entropy coder the paper adopts for occupancy
// codes, polar-angle deltas, radial deltas, and reference-choice symbols
// (§2.2, §3.5). Models are adaptive: symbol frequencies start uniform and
// are updated after each encode/decode, so encoder and decoder stay in
// lockstep without transmitting a frequency table.
package arith

// maxTotal bounds the total frequency count of a model. When the total
// would exceed it, all counts are halved (rounding up so no count reaches
// zero). Keeping the total well below the coder's 2^16 precision limit
// preserves coding accuracy.
const maxTotal = 1 << 15

// increment is added to a symbol's frequency each time it is coded. A large
// increment adapts quickly to skewed distributions, which delta-encoded
// LiDAR streams are.
const increment = 32

// blockSize is how many symbols share one partial sum.
const (
	blockShift = 4
	blockSize  = 1 << blockShift
)

// Model is an adaptive frequency model over a fixed alphabet: the symbol
// counts, flat, plus the sum of every block of blockSize counts. A
// cumulative frequency is a scan over the blocks before the symbol's and
// then over the counts before it inside its block; the skewed byte streams
// DBGC codes rarely leave the first block.
type Model struct {
	counts []uint32 // padded with zeros to a whole number of blocks
	blocks []uint32 // blocks[b] = sum of counts[b*blockSize:(b+1)*blockSize]
	n      int      // alphabet size
	total  uint32
}

// NewModel returns a model over the alphabet {0, ..., n-1} with all symbol
// counts initialized to 1.
func NewModel(n int) *Model {
	if n <= 0 {
		panic("arith: model alphabet size must be positive")
	}
	nb := (n + blockSize - 1) >> blockShift
	table := make([]uint32, nb*blockSize+nb)
	m := &Model{counts: table[:nb*blockSize], blocks: table[nb*blockSize:], n: n}
	m.Reset()
	return m
}

// Reset restores the model to its initial uniform state (every count 1),
// as if freshly returned by NewModel, without allocating.
func (m *Model) Reset() {
	for s := range m.counts[:m.n] {
		m.counts[s] = 1
	}
	m.sum()
}

// sum recomputes the block sums and the total from the counts.
func (m *Model) sum() {
	m.total = 0
	for b := range m.blocks {
		var s uint32
		for _, c := range m.counts[b<<blockShift : (b+1)<<blockShift] {
			s += c
		}
		m.blocks[b] = s
		m.total += s
	}
}

// interval returns the cumulative interval [lo, hi) of sym and the current
// total.
func (m *Model) interval(sym int) (lo, hi, total uint32) {
	b := sym >> blockShift
	for _, s := range m.blocks[:b] {
		lo += s
	}
	for _, c := range m.counts[b<<blockShift : sym] {
		lo += c
	}
	return lo, lo + m.counts[sym], m.total
}

// find returns the symbol whose cumulative interval contains target, along
// with its interval bounds. target must be below the total.
func (m *Model) find(target uint32) (sym int, lo, hi uint32) {
	b := 0
	for lo+m.blocks[b] <= target {
		lo += m.blocks[b]
		b++
	}
	sym = b << blockShift
	for lo+m.counts[sym] <= target {
		lo += m.counts[sym]
		sym++
	}
	return sym, lo, lo + m.counts[sym]
}

// update increases sym's frequency, halving all counts first if the total
// would exceed maxTotal.
func (m *Model) update(sym int) {
	if m.total+increment > maxTotal {
		m.rescale()
	}
	m.counts[sym] += increment
	m.blocks[sym>>blockShift] += increment
	m.total += increment
}

// rescale halves every count, rounding up so no symbol becomes impossible.
func (m *Model) rescale() {
	for s, c := range m.counts[:m.n] {
		m.counts[s] = (c + 1) / 2
	}
	m.sum()
}

// Update advances the adaptive state for sym exactly as coding the symbol
// would, without emitting bits, so encoder and decoder can keep auxiliary
// (shared prior) models in lockstep.
func (m *Model) Update(sym int) {
	if sym < 0 || sym >= m.n {
		panic("arith: Update symbol out of range")
	}
	m.update(sym)
}

// CopyFrom overwrites m with an exact copy of src's state. Both models must
// share one alphabet size. It exists so a context model can be seeded from a
// warmed shared model instead of the uniform prior, which removes most of
// the adaptation cost of splitting a short stream across many contexts.
func (m *Model) CopyFrom(src *Model) {
	if m.n != src.n {
		panic("arith: CopyFrom across alphabet sizes")
	}
	copy(m.counts, src.counts)
	copy(m.blocks, src.blocks)
	m.total = src.total
}

// Size returns the alphabet size.
func (m *Model) Size() int { return m.n }
