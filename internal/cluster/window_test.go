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

// cell is the fields of a packed key: x the row, y the column, z the run.
type cell struct{ x, y, z int64 }

func (c cell) key() uint64 {
	return uint64(c.x<<(2*axisBits) | c.y<<axisBits | c.z)
}

// runsOf returns the least runs windowSums accepts for the given key lists:
// one more than their largest run field.
func runsOf(lists ...[]uint64) int {
	var top uint64
	for _, keys := range lists {
		for _, k := range keys {
			top = max(top, k&axisMask)
		}
	}
	return int(top) + 1
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
		{"long rows", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 600, cell{}, [3]int{1, 1, 1}, [3]int{400, 3, 3}, 0)
		}},
		{"long row of columns", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 600, cell{}, [3]int{1, 1, 1}, [3]int{3, 400, 3}, 0)
		}},
		{"long columns", func(rng *rand.Rand, m int64) []cell {
			return clumps(rng, 600, cell{}, [3]int{1, 1, 1}, [3]int{3, 3, 400}, 0)
		}},
		{"one column of 5000 cells", func(rng *rand.Rand, m int64) []cell {
			cells := clumps(rng, 60, cell{x: 2}, [3]int{1, 1, 1}, [3]int{5, 5, 5000}, 0)
			for z := int64(0); z < 5000; z++ {
				cells = append(cells, cell{4, 3, z})
			}
			return cells
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
				runs := runsOf(c.query, c.src)
				got := windowSums(c.query, c.src, c.w, m, runs, sweepGrain, dirty)
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
					if got := windowSums(c.query, c.src, c.w, m, runs, 16, nil); !slices.Equal(got, want) {
						t.Fatalf("%s: chunked sums at GOMAXPROCS %d differ from brute force", name, procs)
					}
				}
			}
		}
	}
}

// TestWindowSumsLeavesScratchClean: the pooled histogram must be all zero
// between calls, or a later frame would count cells of an earlier one. It
// is as long as a LiDAR frame's: the run field spans 6,000 cells.
func TestWindowSumsLeavesScratchClean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := sortedKeys(clumps(rng, 400, cell{}, [3]int{2, 2, 200}, [3]int{5, 5, 30}, 0))
	b := sortedKeys(clumps(rng, 400, cell{}, [3]int{2, 2, 200}, [3]int{5, 5, 30}, 0))
	const runs = 6000 + 2*200
	if top := runsOf(a, b); top < 6000 || top > runs {
		t.Fatalf("run fields reach %d, want 6000 to %d", top, runs)
	}
	for i := 0; i < 4; i++ {
		windowSums(a, a, nil, 3, runs, 16+(i%2)*sweepGrain, nil)
		if got, want := windowSums(b, b, nil, 3, runs, sweepGrain, nil), bruteWindowSums(b, b, nil, 3); !slices.Equal(got, want) {
			t.Fatalf("round %d: sums differ after an earlier call", i)
		}
	}
}

// TestOutOfRangeFrames: a finite stray return stretches the grid past the
// 21 bits a key gives each field, so fields wrap. The labels are then
// arbitrary, but classification must not panic, must stay deterministic
// across widths, and must not index the histogram below zero when a wrapped
// run field lands under the window radius. A stray on each axis under each
// layout wraps every axis in every role.
func TestOutOfRangeFrames(t *testing.T) {
	base := testCloud(5)
	p := DefaultParams(0.02)
	side := 2 * p.Q
	m := int64(p.K+1) / 2
	span := float64(int64(1) << axisBits) // cells per axis
	along := func(axis int, v float64) geom.Point {
		c := [3]float64{}
		c[axis] = v
		return geom.Point{X: c[0], Y: c[1], Z: c[2]}
	}
	sameAtAllWidths := func(name string, classify func() Result) {
		var one, four Result
		partest.At(1, func() { one = classify() })
		partest.At(4, func() { four = classify() })
		if len(one.Dense) != len(base)+1 || !slices.Equal(one.Dense, four.Dense) {
			t.Fatalf("%s: labels at GOMAXPROCS 1 and 4 differ", name)
		}
	}
	lowest := geom.Bounds(base).Min
	for axis, low := range []float64{lowest.X, lowest.Y, lowest.Z} {
		strays := map[string]float64{
			"wraps":            1.5 * span * side,
			"wraps from below": -2.5 * span * side,
			"spans 2^21 cells": low + span*side,
			// Puts the field of the cells around the blob centers near 2.
			"wrapped under m": -(span - float64(m) + 2) * side,
		}
		for what, v := range strays {
			pc := append(append(geom.PointCloud(nil), base...), along(axis, v))
			bounds := geom.Bounds(pc)
			for _, lay := range allLayouts {
				role := map[int]string{lay.row: "row", lay.col: "column", lay.run: "run"}[axis]
				name := fmt.Sprintf("%s field %s (axis %d, layout %+v)", role, what, axis, lay)
				if role == "run" && what == "wrapped under m" {
					under := 0
					for _, pt := range pc {
						if lay.key(pt, bounds.Min, side, m)&axisMask < uint64(m) {
							under++
						}
					}
					if under == 0 {
						t.Fatalf("%s: no point has a wrapped run field under m = %d", name, m)
					}
				}
				sameAtAllWidths(name, func() Result { return approximateIn(pc, bounds, p, lay) })
			}
			// The layout the classifiers choose puts the stretched axis in the
			// run field.
			name := fmt.Sprintf("run field %s (axis %d)", what, axis)
			if lay := layoutFor(bounds, side); lay.run != axis {
				t.Fatalf("%s: layout %+v", name, lay)
			}
			sameAtAllWidths(name+", exact", func() Result { return CellBased(pc, p) })
		}
	}
}
