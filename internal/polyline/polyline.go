// Package polyline implements DBGC's point organization (§3.4): sparse
// points are arranged into roughly horizontal polylines in the spherical
// coordinate space (Algorithm 1), the polylines are sorted by polar angle,
// and consensus reference polylines are built for the radial-distance
// optimized delta encoding (§3.5 step 8, Algorithm 2).
//
// All coordinates here are quantized integers (the output of coordinate
// scaling, §3.5 step 1). Working on quantized values keeps the compressor
// and decompressor bit-identical when reference-point choices are replayed
// during decompression.
package polyline

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"dbgc/internal/geom"
	"dbgc/internal/radix"
)

// Point is a sparse point in quantized spherical coordinates. Orig tracks
// the index of the point in the original cloud for error accounting; it is
// not transmitted.
type Point struct {
	Theta, Phi, R int64
	Orig          int32
}

// Line is a polyline: a sequence of points in ascending azimuthal order.
// The head (first point) is the leftmost.
type Line []Point

// Head returns the first point of the line.
func (l Line) Head() Point { return l[0] }

// Tail returns the last point of the line.
func (l Line) Tail() Point { return l[len(l)-1] }

// PolarAngle returns the polar angle of the line, defined in §3.4 as the
// polar angle of its first point.
func (l Line) PolarAngle() int64 { return l[0].Phi }

// Config carries the extraction thresholds in quantized units.
type Config struct {
	// UTheta is the average azimuthal step between adjacent samples
	// (u_θ), in quantized units.
	UTheta float64
	// UPhi is the average polar step between adjacent beams (u_φ), in
	// quantized units.
	UPhi float64
	// Cartesian maps a quantized point to its Cartesian position, used
	// for the minimum-Euclidean-distance candidate selection in
	// Algorithm 1.
	Cartesian func(Point) geom.Point
}

// Organize runs Algorithm 1: it partitions pts into polylines and
// outliers. Points are consumed in (φ, θ, r) order so the result is
// deterministic. Single-point lines are returned as outliers. One array
// backs the points of all returned lines.
func Organize(pts []Point, cfg Config) (lines []Line, outliers []Point) {
	if len(pts) == 0 {
		return nil, nil
	}
	s := organizePool.Get().(*organizeScratch)
	defer organizePool.Put(s)
	minP, maxP := bounds(pts)
	idx := s.buildIndex(pts, minP, maxP, cfg)
	seeds := s.sortSeeds(pts, minP, maxP)

	backing := make([]Point, 0, len(pts))
	right := s.right[:0]
	left := s.left[:0]
	for _, sd := range seeds {
		at := idx.rank[sd]
		if idx.taken[at] {
			continue
		}
		idx.taken[at] = true
		seed := pts[sd]
		// The polyline's polar corridor is fixed by its seed (§3.4):
		// [φ_seed − u_φ, φ_seed + u_φ].
		phiMin := float64(seed.Phi) - cfg.UPhi
		phiMax := float64(seed.Phi) + cfg.UPhi

		// Extend right: candidates have θ − θ_tail ∈ [0, 2u_θ].
		right = append(right[:0], at)
		for {
			next, ok := idx.bestCandidate(at, right[len(right)-1], phiMin, phiMax, false)
			if !ok {
				break
			}
			idx.taken[next] = true
			right = append(right, next)
		}
		// Extend left, symmetrically; collected head-outward and reversed
		// into the line afterwards, so extension is O(1) per point.
		left = left[:0]
		head := at
		for {
			prev, ok := idx.bestCandidate(at, head, phiMin, phiMax, true)
			if !ok {
				break
			}
			idx.taken[prev] = true
			left = append(left, prev)
			head = prev
		}
		if len(left)+len(right) == 1 {
			outliers = append(outliers, seed)
			continue
		}
		from := len(backing)
		for i := len(left) - 1; i >= 0; i-- {
			backing = append(backing, pts[idx.cand[left[i]].id])
		}
		for _, k := range right {
			backing = append(backing, pts[idx.cand[k].id])
		}
		lines = append(lines, Line(backing[from:len(backing):len(backing)]))
	}
	s.right, s.left = right, left
	SortLines(lines)
	return lines, outliers
}

// SortLines orders polylines by ascending polar angle, breaking ties by the
// azimuthal angle of the head (§3.4).
func SortLines(lines []Line) {
	sort.Slice(lines, func(a, b int) bool {
		if lines[a].PolarAngle() != lines[b].PolarAngle() {
			return lines[a].PolarAngle() < lines[b].PolarAngle()
		}
		return lines[a].Head().Theta < lines[b].Head().Theta
	})
}

// organizeScratch recycles the per-call buffers of Organize across frames.
type organizeScratch struct {
	seeds []int32
	keys  []uint64
	order []int32
	index candidateIndex
	left  []int32
	right []int32
	sort  radix.Scratch
}

var organizePool = sync.Pool{New: func() any { return new(organizeScratch) }}

// bounds returns the per-coordinate minima and maxima of pts.
func bounds(pts []Point) (minP, maxP Point) {
	minP, maxP = pts[0], pts[0]
	for _, p := range pts[1:] {
		minP.Theta = min(minP.Theta, p.Theta)
		maxP.Theta = max(maxP.Theta, p.Theta)
		minP.Phi = min(minP.Phi, p.Phi)
		maxP.Phi = max(maxP.Phi, p.Phi)
		minP.R = min(minP.R, p.R)
		maxP.R = max(maxP.R, p.R)
	}
	return minP, maxP
}

// identity returns buf resized to n and filled with 0…n-1.
func identity(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// sortSeeds returns the point indices in (φ, θ, r) order, given the bounds
// of pts. When the coordinate ranges fit a packed 64-bit key the order comes from one radix
// sort; otherwise it falls back to a comparison sort. Full-coordinate ties
// keep ascending index order either way: the radix sort is stable, and the
// comparison takes the index as its last key.
func (s *organizeScratch) sortSeeds(pts []Point, minP, maxP Point) []int32 {
	n := len(pts)
	s.seeds = identity(s.seeds, n)
	seeds := s.seeds
	tb := bits.Len64(uint64(maxP.Theta - minP.Theta))
	pb := bits.Len64(uint64(maxP.Phi - minP.Phi))
	rb := bits.Len64(uint64(maxP.R - minP.R))
	if tb+pb+rb > 64 {
		sort.Slice(seeds, func(a, b int) bool {
			pa, pb := pts[seeds[a]], pts[seeds[b]]
			if pa.Phi != pb.Phi {
				return pa.Phi < pb.Phi
			}
			if pa.Theta != pb.Theta {
				return pa.Theta < pb.Theta
			}
			if pa.R != pb.R {
				return pa.R < pb.R
			}
			return seeds[a] < seeds[b]
		})
		return seeds
	}
	s.keys = slices.Grow(s.keys[:0], n)[:n]
	keys := s.keys
	for i, p := range pts {
		keys[i] = uint64(p.Phi-minP.Phi)<<(tb+rb) |
			uint64(p.Theta-minP.Theta)<<rb |
			uint64(p.R-minP.R)
	}
	radix.Sort(keys, seeds, &s.sort)
	return seeds
}

// candidateIndex answers the candidate queries of Algorithm 1 from one
// sorted layout. A point's column is ⌊θ/u_θ⌋; the points are stored in
// (column, φ, index) order, so a column is a contiguous run sorted by φ and
// a query — θ within 2u_θ of the anchor on one side, φ in the seed's
// corridor — reads the anchor's column and its one or two neighbours on
// that side, from the first φ inside the corridor to the last. Each entry
// carries what the candidate tests read (θ and φ as the float64 values the
// tests compare, the Cartesian position computed once up front instead of
// on every probe), so a query touches consecutive memory. Taken points are
// flagged and skipped. The index only has to enumerate a superset of a
// query's window: bestCandidate applies the tests themselves.
type candidateIndex struct {
	cand  []candidate
	cols  []column // one per occupied column, ascending, plus an end sentinel
	rank  []int32  // rank[i] is the position of pts[i] in cand
	taken []bool   // by position in cand
	span  float64  // 2u_θ
}

type candidate struct {
	theta, phi float64
	pos        geom.Point
	id         int32 // index into pts
	col        int32 // index into cols
}

// column is a run of candidates sharing ⌊θ/u_θ⌋: it starts at cand[start]
// and ends where the next column starts. Columns ascend in θ — every θ of
// one column is below every θ of the next — so minTheta and maxTheta tell a
// query whether any point of the column, and with it of any column beyond,
// can be within 2u_θ of the anchor. A polyline's corridor is fixed by its
// seed and its extension steps revisit the columns they overlap, so a column
// remembers where the corridor of the line being extended starts in it:
// lower is the first candidate with φ at or above the corridor's lower edge,
// valid while lowerFor is that line's seed (a position in cand).
type column struct {
	start              int32
	minTheta, maxTheta float64
	lower, lowerFor    int32
}

// buildIndex sorts pts, whose bounds are given, into the candidate layout.
// The order comes from one
// radix sort of packed (column, φ) keys — stable, so equal keys keep
// ascending index order — or, when the column and φ ranges do not fit 64
// bits together, from a comparison sort on (column, φ, index).
func (s *organizeScratch) buildIndex(pts []Point, minP, maxP Point, cfg Config) *candidateIndex {
	n := len(pts)
	ut := cfg.UTheta
	if ut <= 0 {
		ut = 1
	}
	colOf := func(p Point) float64 { return math.Floor(float64(p.Theta) / ut) }

	s.order = identity(s.order, n)
	order := s.order
	// Columns are monotone in θ, so the extreme θ give the extreme columns.
	minCol := colOf(minP)
	colSpan := colOf(maxP) - minCol
	pb := bits.Len64(uint64(maxP.Phi - minP.Phi))
	// Below 2^53 the column differences of the packed key are exact.
	if colSpan >= 1<<53 || bits.Len64(uint64(colSpan))+pb > 64 {
		sort.Slice(order, func(a, b int) bool {
			pa, pb := pts[order[a]], pts[order[b]]
			if ca, cb := colOf(pa), colOf(pb); ca != cb {
				return ca < cb
			}
			if pa.Phi != pb.Phi {
				return pa.Phi < pb.Phi
			}
			return order[a] < order[b]
		})
	} else {
		s.keys = slices.Grow(s.keys[:0], n)[:n]
		keys := s.keys
		for i, p := range pts {
			keys[i] = uint64(colOf(p)-minCol)<<pb | uint64(p.Phi-minP.Phi)
		}
		radix.Sort(keys, order, &s.sort)
	}

	idx := &s.index
	idx.span = 2 * ut
	idx.cand = slices.Grow(idx.cand[:0], n)[:n]
	idx.rank = slices.Grow(idx.rank[:0], n)[:n]
	idx.taken = slices.Grow(idx.taken[:0], n)[:n]
	clear(idx.taken)
	idx.cols = idx.cols[:0]
	col := math.Inf(-1)
	for k, i := range order {
		p := pts[i]
		theta := float64(p.Theta)
		if c := colOf(p); c != col {
			col = c
			idx.cols = append(idx.cols, column{start: int32(k), minTheta: theta, maxTheta: theta, lowerFor: -1})
		}
		cur := &idx.cols[len(idx.cols)-1]
		cur.minTheta = min(cur.minTheta, theta)
		cur.maxTheta = max(cur.maxTheta, theta)
		idx.cand[k] = candidate{
			theta: theta,
			phi:   float64(p.Phi),
			pos:   cfg.Cartesian(p),
			id:    i,
			col:   int32(len(idx.cols) - 1),
		}
		idx.rank[i] = int32(k)
	}
	idx.cols = append(idx.cols, column{start: int32(n)})
	return idx
}

// bestCandidate finds the nearest (in Euclidean distance) available point
// extending from the anchor within the polar corridor [phiMin, phiMax] of
// the line's seed (both positions in cand): θ beyond the anchor by at most
// 2u_θ, in the direction given by left. Distance ties pick the lowest point
// index.
//
// The paper's candidate window is 0 < Δθ ≤ 2u_θ. With quantized
// coordinates the azimuthal step can round to zero (near-field groups
// quantize angles coarsely), so zero is admitted too: equal-θ neighbors
// chain with a zero delta instead of stranding as outliers.
func (idx *candidateIndex) bestCandidate(seed, anchor int32, phiMin, phiMax float64, left bool) (int32, bool) {
	a := &idx.cand[anchor]
	best, bestID := int32(-1), int32(0)
	bestD := 0.0
	step := int32(1)
	if left {
		step = -1
	}
	// Every θ in a column before the anchor's is below the anchor's, so the
	// walk starts at the anchor's column; once a column's nearest θ is out
	// of reach, so is every column beyond it.
	for c := a.col; c >= 0 && int(c) < len(idx.cols)-1; c += step {
		col := &idx.cols[c]
		if left && a.theta-col.maxTheta > idx.span || !left && col.minTheta-a.theta > idx.span {
			break
		}
		// The column's run is sorted by φ: skip to the corridor's lower edge.
		lo, end := col.start, idx.cols[c+1].start
		if col.lowerFor == seed {
			lo = col.lower
		} else {
			for hi := end; lo < hi; {
				if mid := lo + (hi-lo)/2; idx.cand[mid].phi < phiMin {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			col.lower, col.lowerFor = lo, seed
		}
		for k := lo; k < end && idx.cand[k].phi <= phiMax; k++ {
			if idx.taken[k] {
				continue
			}
			p := &idx.cand[k]
			dTheta := p.theta - a.theta
			if left {
				dTheta = -dTheta
			}
			if dTheta >= 0 && dTheta <= idx.span {
				d := a.pos.Dist2(p.pos)
				if best < 0 || d < bestD || (d == bestD && p.id < bestID) {
					best, bestID, bestD = k, p.id, d
				}
			}
		}
	}
	return best, best >= 0
}
