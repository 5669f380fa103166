package cluster

import (
	"math"
	"sync"

	"dbgc/internal/par"
)

// This file holds the window routine shared by both classifiers.
// Clustering needs, for every occupied cell, the population of the (2m+1)³
// cell window around it (core-point pruning) and whether the window holds
// a marked cell (border dilation). Both are one question — the weighted
// count of source cells in the window of each query cell — and sorted
// packed keys already have the order that answers it cheaply. A key has
// three fields, named for what they do here and not for an axis: the high
// field is the row, the middle one the column, the low one the run. Sorted
// keys are row-major, so a row is a run of keys with equal row field, a
// column a run of equal (row, column) fields, and the cells of a column
// ascend along the run field. The window of a query column is the same for
// all its cells up to the run range, and its sources lie in at most 2m+1
// source rows, each contributing the columns within m of the query column.
// As the query column advances along its row that interval of columns
// slides, so a histogram over the run field of the source cells inside the
// (row, column) window is kept incrementally: every source cell enters and
// leaves it once per query row within m of its own, 2(2m+1) array updates
// per cell, and a query cell reads its 2m+1 run bins. (Searching the
// (2m+1)² columns of every cell's window directly costs (2m+1)² range
// searches per cell, which measured several times slower.)
//
// The window is a cube, so which axis of the scene sits in which field
// changes no sum. It changes the cost: the cursors of the 2m+1 source rows
// are looked at once per query column, the cells of a column share that
// look, and the histogram is as long as the run field is wide. A layout
// (see layoutFor) therefore makes columns few and long.
//
// Fields are taken from the keys as they are: a frame beyond the 21-bit
// axis range (see Approximate) aliases cells but cannot index outside the
// histogram, which is sized by the number of values the run field takes
// (layout.runFields: all 2^21 once it can wrap) plus the window.

const axisMask = 1<<axisBits - 1

// packPadded packs non-negative cell indices, offset by pad cells each,
// into a key whose unsigned order is (row, col, run) order. The offset
// keeps the cells of a window of radius up to pad inside the field range, so
// the key probes of grid.runRange never borrow across bit fields.
func packPadded(row, col, run, pad int64) uint64 {
	return uint64((row+pad)<<(2*axisBits) | (col+pad)<<axisBits | (run + pad))
}

// windowScratch holds the reusable buffers of windowSums: the indexed
// source list of a call, and the histogram and row cursors of a sweep.
// hist is all zero whenever the scratch is in the pool.
type windowScratch struct {
	src  windowSource
	hist []int32
	rows []rowCursor
}

// rowCursor tracks one source row within m of the query row.
type rowCursor struct {
	lo, hi int32 // columns [lo, hi) of the row are in the histogram
	end    int32 // one past the last column of the row
	next   int32 // smallest query column at which a column enters or leaves
}

var windowPool = sync.Pool{New: func() any { return new(windowScratch) }}

// grow returns s with length n, reallocating only when capacity is short;
// the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rowBoundary returns the first index at or after i where a row of keys
// begins, or len(keys).
func rowBoundary(keys []uint64, i int) int {
	for i > 0 && i < len(keys) && keys[i]>>(2*axisBits) == keys[i-1]>>(2*axisBits) {
		i++
	}
	return i
}

// windowSource is the indexed source list of one windowSums call, shared
// read-only by its sweeps.
type windowSource struct {
	cells    []uint64
	w        []int32 // weight per cell; nil weighs every cell 1
	m        int32
	colStart []int32 // first cell of each column, then len(cells)
	colAt    []int32 // column field of each column
	rowStart []int32 // first column of each row, then len(colAt)
	rowAt    []int32 // row field of each row
}

// update adds sign times the weight of the cells of source columns [lo, hi)
// to their run bins. Bins are offset by m so that the window of a query cell
// with run field r is hist[r : r+2m+1].
func (s *windowSource) update(hist []int32, lo, hi, sign int32) {
	from, to := s.colStart[lo], s.colStart[hi]
	m := uint64(s.m)
	if s.w == nil {
		for _, k := range s.cells[from:to] {
			hist[k&axisMask+m] += sign
		}
		return
	}
	w := s.w[from:to]
	for i, k := range s.cells[from:to] {
		hist[k&axisMask+m] += sign * w[i]
	}
}

// slide moves the cursor's interval of columns to the window of query
// column c and updates hist by the columns that leave and enter.
func (s *windowSource) slide(hist []int32, cur *rowCursor, c int32) {
	colAt := s.colAt
	l, h, e := cur.lo, cur.hi, cur.end
	for l < h && colAt[l] < c-s.m {
		l++
	}
	if l > cur.lo {
		s.update(hist, cur.lo, l, -1)
	}
	if l == h {
		// The window is empty: columns no query column reaches are passed
		// over without entering.
		for h < e && colAt[h] < c-s.m {
			h++
		}
		l = h
	}
	enter := h
	for h < e && colAt[h] <= c+s.m {
		h++
	}
	if h > enter {
		s.update(hist, enter, h, 1)
	}
	next := int32(math.MaxInt32)
	if l < h {
		next = colAt[l] + s.m + 1
	}
	if h < e {
		next = min(next, colAt[h]-s.m)
	}
	cur.lo, cur.hi, cur.next = l, h, next
}

// sweep computes sums for the rows of query that begin in [from, to).
func (s *windowSource) sweep(query []uint64, from, to, histLen int, sums []int32) {
	from, to = rowBoundary(query, from), rowBoundary(query, to)
	if from == to {
		return
	}
	t := windowPool.Get().(*windowScratch)
	defer windowPool.Put(t)
	if cap(t.hist) < histLen {
		t.hist = make([]int32, histLen)
	}
	hist := t.hist[:histLen]
	span := uint64(2*s.m + 1)

	r0 := 0 // first source row not below the window of the query row
	for j := from; j < to; {
		row := int32(query[j] >> (2 * axisBits))
		for r0 < len(s.rowAt) && s.rowAt[r0] < row-s.m {
			r0++
		}
		rows := t.rows[:0]
		nextAny := int32(math.MaxInt32) // smallest next of rows
		for r := r0; r < len(s.rowAt) && s.rowAt[r] <= row+s.m; r++ {
			first := s.rowStart[r]
			next := s.colAt[first] - s.m
			rows = append(rows, rowCursor{lo: first, hi: first, end: s.rowStart[r+1], next: next})
			nextAny = min(nextAny, next)
		}
		t.rows = rows
		for j < to && int32(query[j]>>(2*axisBits)) == row {
			col := query[j] >> axisBits
			if c := int32(col & axisMask); c >= nextAny {
				nextAny = math.MaxInt32
				for a := range rows {
					if cur := &rows[a]; c >= cur.next {
						s.slide(hist, cur, c)
					}
					nextAny = min(nextAny, rows[a].next)
				}
			}
			for ; j < to && query[j]>>axisBits == col; j++ {
				run := query[j] & axisMask
				var sum int32
				for _, v := range hist[run : run+span] {
					sum += v
				}
				sums[j] = sum
			}
		}
		// Leave the histogram zero for the next row.
		for _, cur := range rows {
			s.update(hist, cur.lo, cur.hi, -1)
		}
	}
}

// windowSums returns, for every cell of query, the total weight of the
// cells of src inside the (2m+1)³ window around it, written into sums
// (resized as needed). query and src are sorted packed keys without
// duplicates and may be the same slice; w holds the weight of each source
// cell, nil meaning 1 each. Weights must sum to less than 2^31. Every run
// field of query and src must be below runs: the histogram has runs+2m bins
// and is indexed by the fields unchecked. The query rows are swept in chunks
// of at least grain cells handed out one at a time: a row near the sensor
// has several times the columns, and so the slides, of a far one, and equal
// shares of cells are not equal shares of work.
func windowSums(query, src []uint64, w []int32, m int64, runs, grain int, sums []int32) []int32 {
	sums = grow(sums, len(query))
	if len(query) == 0 {
		return sums
	}
	if len(src) == 0 {
		clear(sums)
		return sums
	}
	t := windowPool.Get().(*windowScratch)
	s := &t.src
	defer func() {
		s.cells, s.w = nil, nil
		windowPool.Put(t)
	}()

	// Index the source rows and columns. There are at most as many as
	// cells, so sized once the appends below never reallocate.
	n := len(src) + 1
	colStart, colAt := grow(s.colStart, n)[:0], grow(s.colAt, n)[:0]
	rowStart, rowAt := grow(s.rowStart, n)[:0], grow(s.rowAt, n)[:0]
	prev := ^uint64(0)
	for i, k := range src {
		col := k >> axisBits
		if col == prev {
			continue
		}
		if col>>axisBits != prev>>axisBits {
			rowStart = append(rowStart, int32(len(colAt)))
			rowAt = append(rowAt, int32(col>>axisBits))
		}
		colStart = append(colStart, int32(i))
		colAt = append(colAt, int32(col&axisMask))
		prev = col
	}
	colStart = append(colStart, int32(len(src)))
	rowStart = append(rowStart, int32(len(colAt)))
	*s = windowSource{cells: src, w: w, m: int32(m), colStart: colStart, colAt: colAt, rowStart: rowStart, rowAt: rowAt}

	histLen := runs + int(2*m)
	par.Chunks(len(query), grain, func(_, from, to int) { s.sweep(query, from, to, histLen, sums) })
	return sums
}

// sweepGrain is the grain the classifiers sweep at. A chunk opens the
// cursors of its first row again, which costs about what a hundred cells
// do.
const sweepGrain = 1 << 12
