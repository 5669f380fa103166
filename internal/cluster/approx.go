package cluster

import (
	"math"
	"sync"

	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/radix"
)

// Approximate runs the O(n) approximate clustering of §4.3. As in the
// paper, it works on the same 2q cells as the octree: points are counted
// per cell, and a cell N is dense when the total population of its
// surrounding cells — all cells within m = ⌈ε/2q⌉ steps per dimension —
// reaches the (density-equivalent, see below) threshold. Occupied sparse
// cells with a dense surrounding cell are then dilated into the dense set,
// and every point in a dense cell becomes a dense point.
//
// The pipeline is sort-based: point keys are radix-sorted once, giving the
// occupied cells, their populations, and the point runs for the final
// labeling; window populations and the dilation test are then two calls of
// windowSums, which slides a histogram along the sorted rows of cells (see
// window.go). Key construction, the run-length pass and the labeling go
// through par.Chunks over points or cells, the window rows through
// windowSums' own chunks: every chunk writes only its range of the arrays,
// and what crosses chunks is a count per chunk and a prefix over them.
//
// bounds is the bounding box of pc (geom.Bounds(pc)): Compress's pre-scan
// has it at hand, so it is not scanned for again here. Its minimum anchors
// the cells, and its extents decide which axis goes to which key field
// (layoutFor) — a matter of speed alone, every layout labels alike — and
// how long the window sweep's histogram is. So bounds must enclose every
// point of pc: a point outside it gets a run field the histogram has no
// bin for, and the sweep indexes out of range.
//
// Cells are addressed by packed 21-bit-per-axis integer keys; LiDAR scenes
// span thousands of cells per axis, far below the 2^21 limit. A frame that
// does exceed it — one finite stray return a hundred kilometers out is
// enough — is not rejected: its axis indices wrap, distant cells alias, and
// the labels, still a deterministic function of the input, stop meaning
// density. Every split compresses and decodes correctly, so that costs
// ratio on that frame and nothing else: windowSums reads the fields back
// out of the keys, and its histogram has a bin for every value a run field
// that can wrap may take, 2^21+2m in all, so no field value can index
// outside it. Which cells alias depends on the layout, so such a frame's
// labels, and with them its compressed bytes, may differ from those of
// releases that packed every frame (x, y, z).
func Approximate(pc geom.PointCloud, bounds geom.AABB, p Params) Result {
	return approximateIn(pc, bounds, p, layoutFor(bounds, 2*p.Q))
}

// approximateIn is Approximate under a given layout.
func approximateIn(pc geom.PointCloud, bounds geom.AABB, p Params, lay layout) Result {
	res := Result{Dense: make([]bool, len(pc))}
	if len(pc) == 0 || p.Q <= 0 || p.K <= 0 {
		return res
	}
	side, min := 2*p.Q, bounds.Min
	m := int64(math.Ceil(p.Eps() / side))
	runs := lay.runFields(bounds, side, m)

	// The cube window holds more volume than the ε-ball the exact method
	// counts over, so the population threshold is scaled for the two
	// methods to estimate the same density. LiDAR points lie on 2D
	// surfaces, so the captured population scales with the intersected
	// *area*: the right correction is the window/disk area ratio
	// (≈1.54 for the default k=10) rather than the cube/ball volume
	// ratio.
	windowArea := math.Pow(float64(2*m+1)*side, 2)
	ballArea := math.Pi * p.Eps() * p.Eps()
	minPts := int32(math.Ceil(float64(p.minPts()) * windowArea / ballArea))

	s := approxPool.Get().(*approxScratch)
	defer approxPool.Put(s)
	n := len(pc)
	keys := grow(s.keys, n)
	idx := grow(s.idx, n)
	par.Chunks(n, keyGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = lay.key(pc[i], min, side, m)
			idx[i] = int32(i)
		}
	})
	radix.Sort(keys, idx, &s.sort)

	// Run-length the sorted keys into occupied cells and point-run offsets:
	// count the runs that begin in each chunk, then write them from the
	// prefix of those counts.
	begins := func(i int) bool { return i == 0 || keys[i] != keys[i-1] }
	base := par.Offsets(n, runGrain, func(lo, hi int) (runs int) {
		for i := lo; i < hi; i++ {
			if begins(i) {
				runs++
			}
		}
		return runs
	})
	u := base[len(base)-1]
	occ := grow(s.occ, u)
	runStart := grow(s.runStart, u+1)
	par.Chunks(n, runGrain, func(c, lo, hi int) {
		j := base[c]
		for i := lo; i < hi; i++ {
			if begins(i) {
				occ[j], runStart[j] = keys[i], int32(i)
				j++
			}
		}
	})
	runStart[u] = int32(n)
	cnt := grow(s.cnt, u)
	for j := range cnt {
		cnt[j] = runStart[j+1] - runStart[j]
	}

	// A cell is dense when its window population reaches the threshold.
	s.sums = windowSums(occ, occ, cnt, m, runs, sweepGrain, s.sums)
	denseKeys := s.denseKeys[:0]
	for j := 0; j < u; j++ {
		if s.sums[j] >= minPts {
			denseKeys = append(denseKeys, occ[j])
		}
	}

	// Dilation: an occupied cell whose window holds a dense cell — itself,
	// if it is one — is labeled dense.
	s.sums = windowSums(occ, denseKeys, nil, m, runs, sweepGrain, s.sums)

	// Final labeling straight off the sorted point runs.
	sums := s.sums
	tally := make([][2]int, par.NumChunks(u, labelGrain)) // dense cells, dense points
	par.Chunks(u, labelGrain, func(c, lo, hi int) {
		var cells, points int
		for j := lo; j < hi; j++ {
			if sums[j] > 0 {
				cells++
				points += int(cnt[j])
				for _, pi := range idx[runStart[j]:runStart[j+1]] {
					res.Dense[pi] = true
				}
			}
		}
		tally[c] = [2]int{cells, points}
	})
	for _, t := range tally {
		res.NumDenseCells += t[0]
		res.NumDense += t[1]
	}
	s.keys, s.idx, s.occ, s.cnt, s.runStart, s.denseKeys = keys, idx, occ, cnt, runStart, denseKeys
	return res
}

// Grains of Approximate's chunked passes. A helper goroutine takes some
// tens of microseconds to start running on an idle processor — about 70 on
// the virtual machine these were measured on — so a chunk is sized to
// take a hundred or more, and a pass that is not worth two chunks stays on
// the caller.
const (
	keyGrain   = 1 << 13 // points: three divisions and a pack, ~14 ns each
	runGrain   = 1 << 16 // sorted keys: a compare, and a store per run, ~3 ns each
	labelGrain = 1 << 14 // cells: a store per point, ~10 ns a cell
)

// approxScratch recycles the per-frame buffers of Approximate.
type approxScratch struct {
	keys      []uint64
	idx       []int32
	occ       []uint64
	cnt       []int32
	runStart  []int32
	sums      []int32
	denseKeys []uint64
	sort      radix.Scratch
}

var approxPool = sync.Pool{New: func() any { return new(approxScratch) }}
