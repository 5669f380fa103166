package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/par/partest"
)

// cell is the axis fields of a packed key.
type cell struct{ x, y, z int64 }

func (c cell) key() uint64 {
	return uint64(c.x<<(2*axisBits) | c.y<<axisBits | c.z)
}

func cellOfKey(k uint64) cell {
	return cell{int64(k >> (2 * axisBits)), int64(k >> axisBits & axisMask), int64(k & axisMask)}
}

// bruteWindowSums is the reference windowSums is checked against: a map of
// the source cells and (2m+1)³ probes per query cell.
func bruteWindowSums(query, src []uint64, w []int32, m int64) []int32 {
	weight := make(map[cell]int32, len(src))
	for i, k := range src {
		weight[cellOfKey(k)] = 1
		if w != nil {
			weight[cellOfKey(k)] = w[i]
		}
	}
	sums := make([]int32, len(query))
	for j, k := range query {
		c := cellOfKey(k)
		for dx := -m; dx <= m; dx++ {
			for dy := -m; dy <= m; dy++ {
				for dz := -m; dz <= m; dz++ {
					sums[j] += weight[cell{c.x + dx, c.y + dy, c.z + dz}]
				}
			}
		}
	}
	return sums
}

// sortedKeys packs cells into sorted keys without duplicates.
func sortedKeys(cells []cell) []uint64 {
	keys := make([]uint64, len(cells))
	for i, c := range cells {
		keys[i] = c.key()
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// clumps draws n cells from per-axis coordinate sets: each axis has the
// given number of clumps of the given width, consecutive clumps separated
// by at least gap empty coordinates, the first starting at origin.
func clumps(rng *rand.Rand, n int, origin cell, count, width [3]int, gap int64) []cell {
	var axes [3][]int64
	for a, o := range []int64{origin.x, origin.y, origin.z} {
		at := o
		for c := 0; c < count[a]; c++ {
			for i := 0; i < width[a]; i++ {
				axes[a] = append(axes[a], at+int64(i))
			}
			at += int64(width[a]) + gap + rng.Int63n(3)
		}
	}
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = cell{
			axes[0][rng.Intn(len(axes[0]))],
			axes[1][rng.Intn(len(axes[1]))],
			axes[2][rng.Intn(len(axes[2]))],
		}
	}
	return cells
}

func TestWindowSumsMatchesBruteForce(t *testing.T) {
	const top = axisMask // last value of the y and z fields
	grids := []struct {
		name string
		// gen draws a cell list; m is the window radius of the case.
		gen func(rng *rand.Rand, m int64) []cell
	}{
		{"packed", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 500, cell{}, [3]int{1, 1, 1}, [3]int{12, 12, 10}, 0)
		}},
		{"scattered", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 300, cell{3, 1, 2}, [3]int{1, 1, 1}, [3]int{40, 50, 25}, 0)
		}},
		{"gaps in x and y", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 300, cell{}, [3]int{4, 4, 1}, [3]int{3, 2, 8}, 2*m+1)
		}},
		{"gaps just short of the window", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 300, cell{}, [3]int{4, 4, 2}, [3]int{2, 3, 4}, 2*m-2)
		}},
		{"single row", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 300, cell{x: 7}, [3]int{1, 3, 1}, [3]int{1, 9, 12}, m)
		}},
		{"single column", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 40, cell{x: 7, y: 9}, [3]int{1, 1, 3}, [3]int{1, 1, 20}, m)
		}},
		{"z at both ends", func(rng *rand.Rand, m int64) []cell {
			low := clumps(rng, 150, cell{}, [3]int{1, 1, 1}, [3]int{6, 6, 4}, 0)
			high := clumps(rng, 150, cell{z: top - 3}, [3]int{1, 1, 1}, [3]int{6, 6, 4}, 0)
			return append(low, high...)
		}},
		{"x and y at both ends", func(rng *rand.Rand, m int64) []cell {
			low := clumps(rng, 150, cell{}, [3]int{1, 1, 1}, [3]int{4, 4, 9}, 0)
			// A wrapped x field carries into bit 63 of the key.
			high := clumps(rng, 150, cell{x: 2*top - 2, y: top - 3}, [3]int{1, 1, 1}, [3]int{4, 4, 9}, 0)
			return append(low, high...)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range grids {
		for m := int64(1); m <= 6; m++ {
			rng := rand.New(rand.NewSource(100*m + int64(len(g.name))))
			src := sortedKeys(g.gen(rng, m))
			other := sortedKeys(g.gen(rng, m))
			w := make([]int32, len(src))
			for i := range w {
				w[i] = 1 + rng.Int31n(50)
			}
			cases := []struct {
				name       string
				query, src []uint64
				w          []int32
			}{
				{"self weighted", src, src, w},
				{"self unweighted", src, src, nil},
				{"separate weighted", other, src, w},
				{"separate unweighted", other, src[:len(src)/3], nil},
				{"empty source", other, nil, nil},
				{"empty query", nil, src, w},
			}
			for _, c := range cases {
				name := fmt.Sprintf("%s/m=%d/%s", g.name, m, c.name)
				want := bruteWindowSums(c.query, c.src, c.w, m)
				// Dirty, over-long result buffers must be resized and
				// overwritten.
				dirty := make([]int32, len(c.query)+5)
				for i := range dirty {
					dirty[i] = -7
				}
				got := windowSums(c.query, c.src, c.w, m, sweepGrain, dirty)
				if len(got) != len(want) {
					t.Fatalf("%s: %d sums for %d query cells", name, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s: cell %+v: sum %d, brute force %d", name, cellOfKey(c.query[j]), got[j], want[j])
					}
				}
				// A grain far below these grids' size cuts every one of them
				// into many chunks, mid-row.
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					if got := windowSums(c.query, c.src, c.w, m, 16, nil); !slices.Equal(got, want) {
						t.Fatalf("%s: chunked sums at GOMAXPROCS %d differ from brute force", name, procs)
					}
				}
			}
		}
	}
}

// TestWindowSumsLeavesScratchClean: the pooled histogram must be all zero
// between calls, or a later frame would count cells of an earlier one.
func TestWindowSumsLeavesScratchClean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := sortedKeys(clumps(rng, 400, cell{}, [3]int{2, 2, 1}, [3]int{5, 5, 30}, 4))
	b := sortedKeys(clumps(rng, 400, cell{}, [3]int{2, 2, 1}, [3]int{5, 5, 30}, 4))
	for i := 0; i < 4; i++ {
		windowSums(a, a, nil, 3, 16+(i%2)*sweepGrain, nil)
		if got, want := windowSums(b, b, nil, 3, sweepGrain, nil), bruteWindowSums(b, b, nil, 3); !slices.Equal(got, want) {
			t.Fatalf("round %d: sums differ after an earlier call", i)
		}
	}
}

// TestOutOfRangeFrames: a finite stray return stretches the grid past the
// 21 bits a key gives each axis, so fields wrap. The labels are then
// arbitrary, but classification must not panic, must stay deterministic
// across widths, and must not index the histogram below
// zero when a wrapped z field lands under the window radius.
func TestOutOfRangeFrames(t *testing.T) {
	base := testCloud(5)
	p := DefaultParams(0.02)
	side := 2 * p.Q
	m := int64(p.K+1) / 2
	span := float64(int64(1) << axisBits) // cells per axis
	strays := map[string]geom.Point{
		"x wraps":            {X: 1.5 * span * side},
		"y wraps":            {Y: -2.5 * span * side},
		"z wraps":            {Z: -1e9},
		"x spans 2^21 cells": {X: geom.Bounds(base).Min.X + span*side},
		// Puts the z field of the cells around the blob centers near 2.
		"wrapped z under m": {Z: -(span - float64(m) + 2) * side},
	}
	for name, stray := range strays {
		pc := append(append(geom.PointCloud(nil), base...), stray)
		if name == "wrapped z under m" {
			min := geom.Bounds(pc).Min
			under := 0
			for _, pt := range pc {
				if packPadded(0, 0, int64((pt.Z-min.Z)/side), m)&axisMask < uint64(m) {
					under++
				}
			}
			if under == 0 {
				t.Fatalf("%s: no point has a wrapped z field under m = %d", name, m)
			}
		}
		for _, classify := range []func(geom.PointCloud, Params) Result{approximate, CellBased} {
			var one, four Result
			partest.At(1, func() { one = classify(pc, p) })
			partest.At(4, func() { four = classify(pc, p) })
			if len(one.Dense) != len(pc) || !slices.Equal(one.Dense, four.Dense) {
				t.Fatalf("%s: labels at GOMAXPROCS 1 and 4 differ", name)
			}
		}
	}
}
