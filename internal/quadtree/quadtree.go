// Package quadtree implements the 2D quadtree coder used by DBGC's
// optimized outlier compression (§3.6). Outliers are far points spread over
// the xy-plane with a small z-range, so DBGC codes (x, y) with a quadtree
// and carries z as a delta-encoded attribute; this package provides the
// quadtree part.
package quadtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dbgc/internal/declimits"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed quadtree stream.
var ErrCorrupt = errors.New("quadtree: corrupt stream")

const maxDepth = 48

// Point2 is a point in the xy-plane.
type Point2 struct {
	X, Y float64
}

// Encoded is the output of Encode.
type Encoded struct {
	// Data is the self-contained bit stream.
	Data []byte
	// DecodedOrder maps decoded position j to the input index whose
	// point it reconstructs.
	DecodedOrder []int
}

// Encode compresses the 2D points so each reconstructed coordinate is
// within q of the original on both dimensions.
func Encode(points []Point2, q float64) (Encoded, error) {
	if q <= 0 {
		return Encoded{}, fmt.Errorf("quadtree: error bound must be positive, got %v", q)
	}
	var enc Encoded
	out := make([]byte, 0, 64)
	out = varint.AppendUint(out, uint64(len(points)))
	if len(points) == 0 {
		enc.Data = out
		return enc, nil
	}

	minX, minY := points[0].X, points[0].Y
	maxX, maxY := minX, minY
	for _, p := range points[1:] {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	extent := math.Max(maxX-minX, maxY-minY)
	depth := 0
	if extent > 2*q {
		depth = int(math.Ceil(math.Log2(extent / (2 * q))))
		if depth > maxDepth {
			depth = maxDepth
		}
	}
	// Pad so leaf cells measure exactly 2q regardless of cloud extent.
	side := 2 * q * math.Pow(2, float64(depth))
	if side < extent {
		side = extent
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(minX))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(minY))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(side))
	out = varint.AppendUint(out, uint64(depth))

	// A cell owns the run cur[lo:hi] of point indices. Each level splits
	// every run into its four quadrants with a stable counting pass from
	// cur into the other buffer, so a level costs no allocation of its own
	// and the points of a cell keep ascending index order.
	type cell struct {
		lo, hi     int32
		cx, cy, hh float64
	}
	quadrant := func(cl *cell, idx int32) int {
		c := 0
		if points[idx].X >= cl.cx {
			c |= 1
		}
		if points[idx].Y >= cl.cy {
			c |= 2
		}
		return c
	}
	cur, other := make([]int32, len(points)), make([]int32, len(points))
	for i := range cur {
		cur[i] = int32(i)
	}
	half := side / 2
	level := []cell{{hi: int32(len(points)), cx: minX + half, cy: minY + half, hh: half}}
	var next []cell
	var occ []byte
	for d := 0; d < depth; d++ {
		next = next[:0]
		for i := range level {
			cl := &level[i]
			var end [4]int32
			for _, idx := range cur[cl.lo:cl.hi] {
				end[quadrant(cl, idx)]++
			}
			var code byte
			qh := cl.hh / 2
			at := cl.lo
			for c := 0; c < 4; c++ {
				n := end[c]
				end[c] = at // where the quadrant's next point goes
				if n == 0 {
					continue
				}
				code |= 1 << uint(c)
				next = append(next, cell{
					lo: at, hi: at + n,
					cx: childOff(cl.cx, qh, c&1 != 0),
					cy: childOff(cl.cy, qh, c&2 != 0),
					hh: qh,
				})
				at += n
			}
			for _, idx := range cur[cl.lo:cl.hi] {
				c := quadrant(cl, idx)
				other[end[c]] = idx
				end[c]++
			}
			occ = append(occ, code)
		}
		cur, other = other, cur
		level, next = next, level
	}

	counts := make([]uint64, len(level))
	for i, leaf := range level {
		counts[i] = uint64(leaf.hi - leaf.lo)
	}
	order := make([]int, len(points))
	for i, idx := range cur {
		order[i] = int(idx)
	}
	enc.DecodedOrder = order

	// The occupancy codes go to a single adaptive model. (Parent-code
	// contexts were measured to cost ~1.5% here: outlier occupancy streams
	// are dominated by one-hot chains whose statistics a single model
	// already captures, and per-context adaptation is pure overhead.)
	occStream := streamcodec.AppendCodes(nil, streamcodec.Occupancy.Own(), occ, 16)
	countStream := streamcodec.AppendUints(nil, streamcodec.Bulk.Own(), counts)
	out = varint.AppendUint(out, uint64(len(occ)))
	out = varint.AppendUint(out, uint64(len(occStream)))
	out = append(out, occStream...)
	out = varint.AppendUint(out, uint64(len(counts)))
	out = varint.AppendUint(out, uint64(len(countStream)))
	out = append(out, countStream...)
	enc.Data = out
	return enc, nil
}

func childOff(c, qh float64, hi bool) float64 {
	if hi {
		return c + qh
	}
	return c - qh
}

// Decode reconstructs the 2D points (leaf centers, repeated by count) from
// a stream produced by Encode.
func Decode(data []byte) ([]Point2, error) {
	return DecodeLimited(data, nil)
}

// DecodeLimited is Decode charging decoded points, occupancy symbols, and
// tree nodes against b. A nil budget is unlimited. Panics on hostile bytes
// are recovered into ErrCorrupt-wrapped errors.
func DecodeLimited(data []byte, b *declimits.Budget) (pts []Point2, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	n, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("quadtree: point count: %w", err)
	}
	data = data[used:]
	if n == 0 {
		return []Point2{}, nil
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: point count overflow", ErrCorrupt)
	}
	if err := b.Points(int64(n)); err != nil {
		return nil, err
	}
	if len(data) < 24 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	minX := math.Float64frombits(binary.LittleEndian.Uint64(data))
	minY := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	side := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	data = data[24:]
	if side < 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("%w: invalid side %v", ErrCorrupt, side)
	}
	depth64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("quadtree: depth: %w", err)
	}
	data = data[used:]
	if depth64 > maxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeds limit", ErrCorrupt, depth64)
	}
	depth := int(depth64)

	occLen, occStream, data, err := readSection(data, "occupancy")
	if err != nil {
		return nil, err
	}
	countLen, countStream, _, err := readSection(data, "counts")
	if err != nil {
		return nil, err
	}
	// Every leaf holds at least one point, so a counts section longer than
	// the point total is corrupt; reject before decoding countLen symbols.
	// Without this check countLen can demand up to MaxInt32 adaptive-model
	// symbols from a tiny stream (same class as the PR 2 decodeOutliers fix).
	if uint64(countLen) > n {
		return nil, fmt.Errorf("%w: %d leaf counts for %d points", ErrCorrupt, countLen, n)
	}
	counts, err := streamcodec.DecodeUints(nil, streamcodec.Bulk.Own(), countStream, countLen, b)
	if err != nil {
		return nil, fmt.Errorf("quadtree: counts: %w", err)
	}
	occ, err := streamcodec.DecodeCodes(nil, streamcodec.Occupancy.Own(), occStream, occLen, 16, b)
	if err != nil {
		return nil, fmt.Errorf("quadtree: occupancy: %w", err)
	}

	type cell struct {
		cx, cy, hh float64
	}
	half := side / 2
	level := []cell{{cx: minX + half, cy: minY + half, hh: half}}
	pos := 0
	for d := 0; d < depth; d++ {
		next := make([]cell, 0, len(level)*2)
		for _, cl := range level {
			if pos >= occLen {
				return nil, fmt.Errorf("%w: occupancy stream too short", ErrCorrupt)
			}
			code := occ[pos]
			pos++
			if code == 0 || code > 15 {
				return nil, fmt.Errorf("%w: bad occupancy code %d", ErrCorrupt, code)
			}
			qh := cl.hh / 2
			for c := 0; c < 4; c++ {
				if code&(1<<uint(c)) != 0 {
					next = append(next, cell{
						cx: childOff(cl.cx, qh, c&1 != 0),
						cy: childOff(cl.cy, qh, c&2 != 0),
						hh: qh,
					})
				}
			}
		}
		if err := b.Nodes(int64(len(next))); err != nil {
			return nil, err
		}
		level = next
	}
	if pos != occLen {
		return nil, fmt.Errorf("%w: %d unused occupancy codes", ErrCorrupt, occLen-pos)
	}
	if len(level) != len(counts) {
		return nil, fmt.Errorf("%w: %d leaves but %d counts", ErrCorrupt, len(level), len(counts))
	}
	// Clamp the header-declared count before it becomes an allocation
	// capacity; appends grow past the clamp if the stream really carries
	// that many points.
	capHint := n
	if capHint > 1<<22 {
		capHint = 1 << 22
	}
	out := make([]Point2, 0, capHint)
	for i, cl := range level {
		cnt := counts[i]
		// Remaining-budget comparison: summing first could wrap uint64.
		if cnt == 0 || cnt > n-uint64(len(out)) {
			return nil, fmt.Errorf("%w: leaf counts disagree with point total", ErrCorrupt)
		}
		for k := uint64(0); k < cnt; k++ {
			out = append(out, Point2{X: cl.cx, Y: cl.cy})
		}
	}
	if uint64(len(out)) != n {
		return nil, fmt.Errorf("%w: decoded %d points, header says %d", ErrCorrupt, len(out), n)
	}
	return out, nil
}

func readSection(data []byte, name string) (count int, payload, rest []byte, err error) {
	c, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("quadtree: %s count: %w", name, err)
	}
	data = data[used:]
	l, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("quadtree: %s length: %w", name, err)
	}
	data = data[used:]
	if l > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("%w: %s section truncated", ErrCorrupt, name)
	}
	if c > uint64(math.MaxInt32) {
		return 0, nil, nil, fmt.Errorf("%w: %s count overflow", ErrCorrupt, name)
	}
	return int(c), data[:l], data[l:], nil
}
