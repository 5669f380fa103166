// Package cluster implements DBGC's density-based point classification
// (§3.2): the exact cell-based clustering adapted from DBSCAN, the O(n)
// approximate variant of §4.3, and a reference DBSCAN used to validate
// both. Cells are octree leaf cells of side 2q; ε = k·q with k = 10 as in
// the paper, and minPts defaults to the surface variant of the paper's
// leaf-capacity derivation (see DefaultMinPts).
package cluster

import (
	"math"
	"sort"

	"dbgc/internal/geom"
	"dbgc/internal/radix"
)

// Params holds the clustering parameters.
type Params struct {
	// Q is the per-dimension error bound q_xyz; cells have side 2Q.
	Q float64
	// K scales the neighborhood radius: ε = K·Q. The paper fixes K = 10.
	K int
	// MinPts is the core-point neighbor threshold. Zero means the
	// surface-bound default (see DefaultMinPts).
	MinPts int
}

// DefaultParams returns the default parameter choices for error bound q:
// k = 10 as in the paper, and the surface variant of the paper's minPts
// derivation (see DefaultMinPts).
func DefaultParams(q float64) Params {
	p := Params{Q: q, K: 10}
	p.MinPts = p.DefaultMinPts()
	return p
}

// DefaultMinPts computes ⌈πK²/4⌉ — the leaf capacity of the ε-sphere's
// great-disk cross-section. The paper derives minPts as the number of
// non-empty leaf cells the ε-sphere can hold, ⌈πK³/6⌉ (§3.2), but LiDAR
// points lie on 2D surfaces: even a perfectly sampled wall fills only a
// disk through the sphere, so the volumetric bound is unreachable and
// would classify every scan as sparse. The surface bound keeps the
// derivation's intent — "the sphere around a core point is covered by a
// sufficient number of non-empty leaf nodes" — for surface-sampled data,
// and marks dense exactly the regions whose sample spacing is below the
// octree leaf size, the regime the octree compresses best. The paper's
// volumetric value remains available via the MinPts field.
func (p Params) DefaultMinPts() int {
	k := float64(p.K)
	return int(math.Ceil(math.Pi * k * k / 4))
}

// VolumetricMinPts computes the paper's literal ⌈πK³/6⌉ bound.
func (p Params) VolumetricMinPts() int {
	k := float64(p.K)
	return int(math.Ceil(math.Pi * k * k * k / 6))
}

// Eps returns the neighborhood radius ε = K·Q.
func (p Params) Eps() float64 { return float64(p.K) * p.Q }

func (p Params) minPts() int {
	if p.MinPts > 0 {
		return p.MinPts
	}
	return p.DefaultMinPts()
}

// Result is the outcome of classification.
type Result struct {
	// Dense[i] reports whether point i was classified as dense.
	Dense []bool
	// NumDense counts the dense points.
	NumDense int
	// NumDenseCells counts the grid cells marked dense.
	NumDenseCells int
}

// Split partitions the cloud indices into dense and sparse lists.
func (r Result) Split() (dense, sparse []int) {
	for i, d := range r.Dense {
		if d {
			dense = append(dense, i)
		} else {
			sparse = append(sparse, i)
		}
	}
	return dense, sparse
}

// Cell keys pack three 21-bit cell indices into a uint64 (see packPadded in
// window.go). The indices are offsets from the cloud minimum, hence
// non-negative, and real LiDAR scenes stay far below the 2^21 per-axis
// limit; what happens beyond it is described at Approximate.
const axisBits = 21

// cellStepRow and cellStepCol advance a packed key by one cell along the
// row or the column field; run steps are ±1.
const (
	cellStepRow = int64(1) << (2 * axisBits)
	cellStepCol = int64(1) << axisBits
)

// layout says which axis of the scene (0 = x, 1 = y, 2 = z) each key field
// holds, in the order row, column, run (see window.go for what the fields
// do).
type layout struct{ row, col, run int }

// cellsAcross returns how many cells of the given side a box is across
// along each axis, less one: the largest cell index a point of it gets.
func cellsAcross(b geom.AABB, side float64) [3]int64 {
	size := b.Size()
	return [3]int64{int64(size.X / side), int64(size.Y / side), int64(size.Z / side)}
}

// layoutFor lays the key fields along a frame with the given bounds and
// cell side: the axis with the fewest cells across is the column field and
// the one with the most the run field, ties going to the lower axis index
// first. Every layout gives the same labels; this one gives the window
// sweep the fewest, longest columns a layout can whose rows still split
// across workers (a short axis in the row field leaves ~150 giant rows).
func layoutFor(b geom.AABB, side float64) layout {
	cells := cellsAcross(b, side)
	// Axes by ascending extent, stably.
	a := [3]int{0, 1, 2}
	if cells[a[1]] < cells[a[0]] {
		a[0], a[1] = a[1], a[0]
	}
	if cells[a[2]] < cells[a[1]] {
		a[1], a[2] = a[2], a[1]
		if cells[a[1]] < cells[a[0]] {
			a[0], a[1] = a[1], a[0]
		}
	}
	return layout{row: a[1], col: a[0], run: a[2]}
}

// runFields returns the number of values the run field takes in a frame with
// the given bounds, cell side and key padding: one per cell along that axis,
// or all of them when the axis is too long for the field and wraps.
func (l layout) runFields(b geom.AABB, side float64, pad int64) int {
	top := cellsAcross(b, side)[l.run] + pad
	if top < 0 || top > axisMask {
		return axisMask + 1
	}
	return int(top) + 1
}

// key returns the padded key of the cell holding p, for cells of the given
// side anchored at min.
func (l layout) key(p, min geom.Point, side float64, pad int64) uint64 {
	cell := [3]int64{int64((p.X - min.X) / side), int64((p.Y - min.Y) / side), int64((p.Z - min.Z) / side)}
	return packPadded(cell[l.row], cell[l.col], cell[l.run], pad)
}

// grid buckets points into cells of side 2Q anchored at the cloud minimum,
// mirroring the octree leaf layout. The layout is a sorted CSR: cell keys
// ascending in keys, each cell's point indices in ptIdx[start[j]:start[j+1]].
// Window scans walk contiguous key ranges found by binary search. pad is
// the canonical-key axis offset and bounds the window radius m the grid may
// be probed with; runs is the runFields of the keys.
type grid struct {
	keys  []uint64
	start []int32
	ptIdx []int32
	min   geom.Point
	side  float64
	pad   int64
	lay   layout
	runs  int
}

// buildGrid sorts the cloud into the CSR layout. pad must be at least the
// largest window radius (in cells) later probes will use.
func buildGrid(pc geom.PointCloud, q float64, pad int64) *grid {
	bounds := geom.Bounds(pc)
	g := &grid{
		min:  bounds.Min,
		side: 2 * q,
		pad:  pad,
		lay:  layoutFor(bounds, 2*q),
	}
	g.runs = g.lay.runFields(bounds, g.side, pad)
	n := len(pc)
	keys := make([]uint64, n)
	g.ptIdx = make([]int32, n)
	for i, p := range pc {
		keys[i] = g.cellOf(p)
		g.ptIdx[i] = int32(i)
	}
	radix.Sort(keys, g.ptIdx, nil)
	g.keys = keys[:0]
	g.start = make([]int32, 0, n/2+2)
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j] == keys[i] {
			j++
		}
		g.keys = append(g.keys, keys[i])
		g.start = append(g.start, int32(i))
		i = j
	}
	g.start = append(g.start, int32(n))
	return g
}

// cellOf returns the canonical padded key of the cell containing p.
func (g *grid) cellOf(p geom.Point) uint64 {
	return g.lay.key(p, g.min, g.side, g.pad)
}

// cellPoints returns the point indices of run j.
func (g *grid) cellPoints(j int) []int32 {
	return g.ptIdx[g.start[j]:g.start[j+1]]
}

// runRange returns the half-open run interval [i0, i1) of cells with keys
// in [lo, hi].
func (g *grid) runRange(lo, hi uint64) (int, int) {
	i0 := sort.Search(len(g.keys), func(i int) bool { return g.keys[i] >= lo })
	i1 := i0
	for i1 < len(g.keys) && g.keys[i1] <= hi {
		i1++
	}
	return i0, i1
}

// countNeighbors counts points within eps of p, stopping early once the
// count reaches limit. The scan covers all cells intersecting the ε-ball:
// the cells of one window column are one contiguous key range, found by
// binary search and walked sequentially.
func (g *grid) countNeighbors(pc geom.PointCloud, p geom.Point, eps float64, limit int) int {
	m := int64(math.Ceil(eps / g.side))
	c := g.cellOf(p)
	eps2 := eps * eps
	count := 0
	for dr := -m; dr <= m; dr++ {
		for dc := -m; dc <= m; dc++ {
			base := c + uint64(dr*cellStepRow+dc*cellStepCol)
			i0, i1 := g.runRange(base-uint64(m), base+uint64(m))
			for j := i0; j < i1; j++ {
				for _, i := range g.cellPoints(j) {
					if pc[i].Dist2(p) <= eps2 {
						count++
						if count >= limit {
							return count
						}
					}
				}
			}
		}
	}
	return count
}

// neighbors appends to dst the indices of all points within eps of p.
func (g *grid) neighbors(pc geom.PointCloud, p geom.Point, eps float64, dst []int32) []int32 {
	m := int64(math.Ceil(eps / g.side))
	c := g.cellOf(p)
	eps2 := eps * eps
	for dr := -m; dr <= m; dr++ {
		for dc := -m; dc <= m; dc++ {
			base := c + uint64(dr*cellStepRow+dc*cellStepCol)
			i0, i1 := g.runRange(base-uint64(m), base+uint64(m))
			for j := i0; j < i1; j++ {
				for _, i := range g.cellPoints(j) {
					if pc[i].Dist2(p) <= eps2 {
						dst = append(dst, i)
					}
				}
			}
		}
	}
	return dst
}
