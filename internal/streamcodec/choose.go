package streamcodec

import (
	"math"
	"sync"

	"dbgc/internal/ctxmodel"
	"dbgc/internal/varint"
)

// The markers of a competing stream, as a group's methods byte records them.
const (
	MarkOwn   = iota // the stream's own coder, Class.Own
	MarkPlain        // plain arithmetic coding
	MarkCtx          // the context-modeled coder
)

// Marked returns the coder marker m names for a stream of class c.
func (c Class) Marked(m int) Codec {
	switch m {
	case MarkOwn:
		return c.Own()
	case MarkPlain:
		return Arith
	default:
		return Ctx
	}
}

// Rivals returns the markers a sparse angular stream of class c chooses
// among in the context-modeled container: every marker whose coder no lower
// marker names already (the φ tails' own coder is plain arithmetic coding).
func (c Class) Rivals() []int {
	if c.Own() == Arith {
		return []int{MarkOwn, MarkCtx}
	}
	return []int{MarkOwn, MarkPlain, MarkCtx}
}

// smallStream is the element count under which DEFLATE is attempted on a
// competing stream whatever the stream holds: the heads of a thin outer
// shell, where an adaptive model has not finished learning when the stream
// ends and the second coding costs microseconds.
const smallStream = 256

// repeating is the share of a stream's values that have to equal the value
// two before them for DEFLATE to be attempted on a longer one: a constant
// stream, one of long runs, an alternating one — where LZ77 replaces
// thousands of symbols by one match and an adaptive model still pays a
// hundredth of a bit for each. On the θ streams of a real capture, under
// half the values do and DEFLATE loses to either arithmetic coder by a
// fifth. Longer periods go unseen: finding them takes LZ77 itself.
const repeating = 15.0 / 16

// ctxFraming is what the context coder's one-shard framing costs: a byte for
// the shard count and about two for the payload's length.
const ctxFraming = 3

// AppendSmallestInts appends vs coded by one of c.Rivals() and returns the
// winner's marker and how many codings of the stream it took to decide: one,
// unless DEFLATE had to be tried. The arithmetic rivals are priced by
// priceInts, without coding, and the cheapest is the one coded. DEFLATE has
// no price: it is coded first, to be kept if it comes in under that price
// (ties to it: it is the lower marker), and only where it can win — on a
// stream that repeats itself or is too short for a model to learn.
func AppendSmallestInts(dst []byte, c Class, vs []int64) (out []byte, marker, codings int) {
	plain, ctx, repeats := priceInts(vs)
	best, marker := math.Inf(1), -1
	for _, m := range c.Rivals() {
		p := math.Inf(1)
		switch c.Marked(m) {
		case Arith:
			p = plain
		case Ctx:
			p = ctx + ctxFraming
		}
		if p < best {
			best, marker = p, m
		}
	}
	at := len(dst)
	if c.Own() == DeflateVarint && (len(vs) < smallStream || float64(repeats) > repeating*float64(len(vs))) {
		codings++
		dst = AppendInts(dst, DeflateVarint, vs)
		if float64(len(dst)-at) <= best {
			return dst, MarkOwn, codings
		}
		dst = dst[:at]
	}
	return AppendInts(dst, c.Marked(marker), vs), marker, codings + 1
}

// pricer holds the models priceInts follows: the plain coder's one, and the
// context coder's — one a magnitude bucket for first bytes, seeded on first
// use from a shared one that follows every first byte until all are live
// (ctxmodel.Bank), and one for continuation bytes. Pooled: 21 KB.
type pricer struct {
	all, cont model
	first     [ctxmodel.IntContexts]model
	shared    table
}

var pricerPool = sync.Pool{New: func() any { return new(pricer) }}

// priceInts returns what the plain arithmetic coder and the context coder
// each spend on vs, in bytes and the latter's framing aside, without running
// either: one pass over the values takes every LEB128 byte through the
// models the two coders would code it under, as arith.AppendCompressInts and
// ctxmodel.AppendIntsCtx do. repeats counts the values equal to the value
// two before them.
func priceInts(vs []int64) (plain, ctx float64, repeats int) {
	p := pricerPool.Get().(*pricer)
	defer pricerPool.Put(p)
	for i, v := range vs[min(2, len(vs)):] {
		if v == vs[i] {
			repeats++
		}
	}
	p.shared.reset()
	p.all.seed(&p.shared)
	p.cont.seed(&p.shared)
	var live [ctxmodel.IntContexts]bool
	pending, prev := len(live), 0
	for _, v := range vs {
		z := varint.Zigzag(v)
		sym, rest := byte(z&0x7f), z>>7
		if rest != 0 {
			sym |= 0x80
		}
		plain += p.all.add(sym)
		first := &p.first[prev]
		if !live[prev] {
			first.seed(&p.shared)
			live[prev] = true
			pending--
		}
		ctx += first.add(sym)
		if pending > 0 {
			p.shared.update(sym)
		}
		for rest != 0 {
			sym, rest = byte(rest&0x7f), rest>>7
			if rest != 0 {
				sym |= 0x80
			}
			plain += p.all.add(sym)
			ctx += p.cont.add(sym)
		}
		prev = ctxmodel.MagBucket(z)
	}
	plain += p.all.price()
	ctx += p.cont.price()
	for b := range live {
		if live[b] {
			ctx += p.first[b].price()
		}
	}
	return plain / 8, ctx / 8, repeats
}

// What arith's adaptive models are made of (arith/model.go): every count
// starts at 1, a coded symbol's grows by increment, and when the total would
// pass maxTotal every count is halved, rounding up, first.
// TestPriceMatchesCoders holds the prices to the coders, and so these two.
const (
	increment = 32
	maxTotal  = 1 << 15
)

// table is the counts of one of arith's models over 256 symbols.
type table struct {
	counts [256]uint32
	total  uint32
}

func (t *table) reset() {
	for s := range t.counts {
		t.counts[s] = 1
	}
	t.total = uint32(len(t.counts))
}

// update is arith's Model.update.
func (t *table) update(sym byte) {
	if t.total+increment > maxTotal {
		t.total = 0
		for s, c := range t.counts {
			t.counts[s] = (c + 1) / 2
			t.total += t.counts[s]
		}
	}
	t.counts[sym] += increment
	t.total += increment
}

// model prices one of arith's models without coding: between two halvings
// the probability a symbol is coded at is (its count then) / (the total
// then), whose product over a block of symbols depends on how often each
// occurs and not on their order, and telescopes into gamma functions. So the
// table stays where the open block began, block counts the symbols since,
// and a block is priced when the model halves and at the end.
type model struct {
	table
	block   [256]uint32
	n, room uint32 // symbols in the open block, and how many it holds before the model halves
}

// seed starts the model over as a copy of from.
func (m *model) seed(from *table) {
	m.table = *from
	m.block, m.n, m.room = [256]uint32{}, 0, (maxTotal-m.total)/increment
}

// add takes sym through the model and returns the bits of the block it
// closes, if it closes one.
func (m *model) add(sym byte) (bits float64) {
	m.block[sym]++
	m.n++
	if m.n <= m.room {
		return 0
	}
	return m.halve(sym)
}

// halve closes the open block, whose last symbol is sym: the update that
// halves the counts comes after sym is coded and before it is counted.
func (m *model) halve(sym byte) (bits float64) {
	bits = m.price()
	m.block[sym]--
	m.total = 0
	for s, c := range m.counts {
		c = (c + increment*m.block[s] + 1) / 2
		m.counts[s], m.block[s] = c, 0
		m.total += c
	}
	m.counts[sym] += increment
	m.total += increment
	m.n, m.room = 0, (maxTotal-m.total)/increment
	return bits
}

// price returns the bits the symbols of the open block cost.
func (m *model) price() float64 {
	if m.n == 0 {
		return 0
	}
	total := float64(m.total) / increment
	nats := lgamma(total+float64(m.n)) - lgamma(total)
	for s, k := range m.block {
		if k != 0 {
			c := float64(m.counts[s]) / increment
			nats -= lgamma(c+float64(k)) - lgamma(c)
		}
	}
	return nats / math.Ln2
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
