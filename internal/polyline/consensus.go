package polyline

import (
	"cmp"
	"slices"
)

// MaxRefLines caps the reference polyline set. Scenes with long flat rings
// produce hundreds of polylines at the same quantized polar angle; merging
// all of them into every consensus line would make step 8 quadratic, and
// only the closest preceding lines carry predictive value. The cap applies
// identically during compression and decompression, so reference choices
// stay reproducible.
const MaxRefLines = 8

// RefWindow returns the index range [lo, idx) of the reference polyline set
// of lines[idx] (Definition 3.4): the preceding polylines whose polar angle
// differs from lines[idx]'s by at most thPhi, capped at MaxRefLines. lines
// must already be sorted by SortLines, so the window is a contiguous run
// ending at idx.
func RefWindow(lines []Line, idx int, thPhi int64) (lo int) {
	phi := lines[idx].PolarAngle()
	lo = idx
	for lo > 0 && idx-lo < MaxRefLines && phi-lines[lo-1].PolarAngle() <= thPhi {
		lo--
	}
	return lo
}

// Consensus is the consensus reference polyline l* (Algorithm 2) of one
// line after another of a set sorted by SortLines, with a cursor for the
// neighbour queries of §3.5 step 8. l* of a line is its reference polylines
// merged in ⟨PL⟩ order into one θ-sorted line, each later (φ-closer)
// polyline replacing the consensus points inside its azimuthal span.
//
// A point of reference line j is therefore in l* exactly when no later line
// of the window spans its θ, and the window's low edge never moves back as
// the lines go by (polar angles ascend), so a point that a later line
// replaced is never wanted again: l* of lines[i] is l* of lines[i-1]
// without the points of the lines that left the window, and with
// lines[i-1] laid over its span — one pass over l*, where merging the
// window from nothing is one pass per window line.
//
// l* is built from θ, φ and the r values of preceding polylines only, all
// of which the decompressor has recovered when it needs l*, so both sides
// reproduce the same line. The zero value is ready for use, and one value
// serves one line set after another.
type Consensus struct {
	pts, spare []consensusPoint // l*, ascending in θ; the buffer the next one is built in
	lo, hi     int              // l* merges lines[lo:hi]
	a, b       int              // the cursor: pts[:a] lie left of its θ, pts[b:] right of it
}

type consensusPoint struct {
	theta, r int64
	line     int32 // index of the polyline the point belongs to
}

// Advance makes c the consensus line of lines[i], given that it is that of
// lines[i-1]: i counts up from zero over a line set, and every line's θ
// ascends. Anything else than a window sliding forward — line 0, an empty
// window before this one, polar angles out of order, which no encoder
// writes — starts l* over at the window's first line.
func (c *Consensus) Advance(lines []Line, i int, thPhi int64) {
	lo := RefWindow(lines, i, thPhi)
	if lo < c.lo || lo > c.hi || c.hi > i {
		c.pts, c.lo, c.hi = c.pts[:0], lo, lo
	}
	for ; c.hi < i; c.hi++ {
		c.lay(lines[c.hi], c.hi, lo)
	}
	c.lo, c.a, c.b = lo, 0, 0
}

// lay merges l, which is lines[j], into l*, dropping on the way the points
// of lines before lines[lo].
func (c *Consensus) lay(l Line, j, lo int) {
	k := 0
	for k < len(c.pts) && c.pts[k].theta < l.Head().Theta {
		k++
	}
	dst := appendKept(c.spare[:0], c.pts[:k], lo)
	for _, p := range l {
		dst = append(dst, consensusPoint{p.Theta, p.R, int32(j)})
	}
	for k < len(c.pts) && c.pts[k].theta <= l.Tail().Theta {
		k++
	}
	c.pts, c.spare = appendKept(dst, c.pts[k:], lo), c.pts
}

// appendKept appends to dst the points of pts that belong to lines[lo] or a
// later line.
func appendKept(dst, pts []consensusPoint, lo int) []consensusPoint {
	for _, p := range pts {
		if int(p.line) >= lo {
			dst = append(dst, p)
		}
	}
	return dst
}

// Find puts the cursor at azimuth theta, by binary search.
func (c *Consensus) Find(theta int64) {
	c.a, _ = slices.BinarySearchFunc(c.pts, theta, func(p consensusPoint, theta int64) int {
		return cmp.Compare(p.theta, theta)
	})
	c.b = c.a
	c.Walk(theta)
}

// Walk moves the cursor forward to azimuth theta, which must not be below
// where it stands: the queries of one polyline come in ascending θ, so
// after the head's Find a line's tail costs one walk along l* together.
func (c *Consensus) Walk(theta int64) {
	for c.a < len(c.pts) && c.pts[c.a].theta < theta {
		c.a++
	}
	c.b = max(c.b, c.a)
	for c.b < len(c.pts) && c.pts[c.b].theta <= theta {
		c.b++
	}
}

// Left returns the radial value of the rightmost point of l* with θ below
// the cursor's, if any: the "upper-left" candidate of §3.5.
func (c *Consensus) Left() (r int64, ok bool) {
	if c.a == 0 {
		return 0, false
	}
	return c.pts[c.a-1].r, true
}

// Right returns the radial value of the leftmost point of l* with θ above
// the cursor's, if any: the "upper-right" candidate.
func (c *Consensus) Right() (r int64, ok bool) {
	if c.b == len(c.pts) {
		return 0, false
	}
	return c.pts[c.b].r, true
}

// At returns the radial value of a point of l* at the cursor's θ, if any —
// the "upper-middle" candidate, which exists exactly when an aligned sample
// sits directly above the current point.
func (c *Consensus) At() (r int64, ok bool) {
	if c.a == c.b {
		return 0, false
	}
	return c.pts[c.a].r, true
}
