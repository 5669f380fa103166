package cluster

import (
	"math"

	"dbgc/internal/geom"
	"dbgc/internal/par"
)

// scanGrain is the least number of cells in a chunk of CellBased's per-cell
// scans, which cost from nothing (pruned) to thousands of distance tests.
const scanGrain = 256

// CellBased runs the paper's exact cell-based clustering (§3.2). The dense
// set it computes is the order-independent fixpoint of the rules in the
// paper:
//
//   - a point with at least minPts neighbors within ε is a core point;
//   - a cell containing a core point is a dense cell;
//   - every point in a dense cell is dense (the octree codes dense cells
//     wholesale, so cell-mates ride along — Example 3.1);
//   - every point within ε of a point in a dense cell is dense (DBSCAN's
//     border rule, widened by the cell shortcut).
//
// The octree-aware pruning of §3.2 makes this tractable: inside a cell,
// core checking stops at the first core point (the cell is then dense and
// the rest of its points are dense regardless of their own counts), a
// cheap per-cell population bound skips the neighbor count entirely for
// points whose whole ε-window cannot reach minPts, and the border sweep
// only examines occupied cells whose window actually contains a dense
// cell. Window populations and the dense-cell prefilter come from
// windowSums (window.go), and the per-cell scans of passes 1 and 3 go
// through par.Chunks (each cell's writes touch only its own points, so the
// chunks are independent).
func CellBased(pc geom.PointCloud, p Params) Result {
	res := Result{Dense: make([]bool, len(pc))}
	if len(pc) == 0 || p.Q <= 0 || p.K <= 0 {
		return res
	}
	eps := p.Eps()
	minPts := p.minPts()
	m := int64(math.Ceil(eps / (2 * p.Q)))
	g := buildGrid(pc, p.Q, m)
	u := len(g.keys)
	cnt := make([]int32, u)
	for j := 0; j < u; j++ {
		cnt[j] = g.start[j+1] - g.start[j]
	}

	// Upper-bound pruning: the population of the (2m+1)³ window around a
	// cell bounds any member's ε-ball count from above.
	windowTotal := windowSums(g.keys, g.keys, cnt, m, g.runs, sweepGrain, nil)

	// Pass 1: find dense cells. Within a cell, stop at the first core
	// point.
	denseRun := make([]bool, u)
	par.Chunks(u, scanGrain, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			if windowTotal[j] < int32(minPts) {
				continue
			}
			for _, i := range g.cellPoints(j) {
				if g.countNeighbors(pc, pc[i], eps, minPts) >= minPts {
					denseRun[j] = true
					break
				}
			}
		}
	})

	// Pass 2: points in dense cells are dense.
	denseKeys := make([]uint64, 0, u/4)
	for j := 0; j < u; j++ {
		if !denseRun[j] {
			continue
		}
		denseKeys = append(denseKeys, g.keys[j])
		res.NumDenseCells++
		for _, i := range g.cellPoints(j) {
			res.Dense[i] = true
		}
	}

	// Pass 3: border sweep — points within ε of any dense-cell point.
	// The window-reach prefilter finds the occupied sparse cells whose
	// window holds a dense cell; only their points are distance-checked,
	// with early accept.
	near := windowSums(g.keys, denseKeys, nil, m, g.runs, sweepGrain, nil)
	eps2 := eps * eps
	par.Chunks(u, scanGrain, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			if denseRun[j] || near[j] == 0 {
				continue
			}
			id := g.keys[j]
			for _, q := range g.cellPoints(j) {
			candidate:
				for dr := -m; dr <= m; dr++ {
					for dc := -m; dc <= m; dc++ {
						base := id + uint64(dr*cellStepRow+dc*cellStepCol)
						i0, i1 := g.runRange(base-uint64(m), base+uint64(m))
						for nj := i0; nj < i1; nj++ {
							if !denseRun[nj] {
								continue
							}
							for _, e := range g.cellPoints(nj) {
								if pc[q].Dist2(pc[e]) <= eps2 {
									res.Dense[q] = true
									break candidate
								}
							}
						}
					}
				}
			}
		}
	})

	for _, d := range res.Dense {
		if d {
			res.NumDense++
		}
	}
	return res
}
