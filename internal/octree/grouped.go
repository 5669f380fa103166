package octree

import (
	"fmt"
	"math"

	"dbgc/internal/arith"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// EncodeGrouped implements the "Octree_i" scheme (Garcia et al., §4.1 of
// the paper): the tree is built exactly as in Encode, but occupancy codes
// are grouped by the occupancy code of their parent node, and each group is
// compressed separately with its own adaptive arithmetic coder. The paper
// observes this helps dense object scans yet often hurts sparse LiDAR
// clouds, where many groups are too small to amortize per-group overhead —
// this implementation reproduces that behaviour.
func EncodeGrouped(points geom.PointCloud, q float64) (Encoded, error) {
	if q <= 0 {
		return Encoded{}, fmt.Errorf("octree: error bound must be positive, got %v", q)
	}
	var enc Encoded
	header := make([]byte, 0, 64)
	header = varint.AppendUint(header, uint64(len(points)))
	if len(points) == 0 {
		enc.Data = header
		return enc, nil
	}

	cube := geom.Bounds(points).Cube()
	depth := depthFor(cube.MaxDim(), q)
	side := 2 * q * math.Pow(2, float64(depth))
	if side < cube.MaxDim() {
		side = cube.MaxDim()
	}
	header = appendFloat(header, cube.Min.X)
	header = appendFloat(header, cube.Min.Y)
	header = appendFloat(header, cube.Min.Z)
	header = appendFloat(header, side)
	header = varint.AppendUint(header, uint64(depth))

	occ, parents, counts, order := buildWithParents(points, cube.Min, side, depth)
	enc.DecodedOrder = order

	// Partition codes into 256 groups keyed by parent occupancy code and
	// compress each group separately. The decoder replays the BFS, so it
	// knows each node's parent code and pulls from the right group.
	groups := make([][]byte, 256)
	for i, code := range occ {
		groups[parents[i]] = append(groups[parents[i]], code)
	}
	out := header
	out = varint.AppendUint(out, uint64(len(occ)))
	for p := 0; p < 256; p++ {
		if len(groups[p]) == 0 {
			continue
		}
		stream := arith.AppendCompressCodes(nil, groups[p], 256)
		out = varint.AppendUint(out, uint64(p))
		out = varint.AppendUint(out, uint64(len(groups[p])))
		out = varint.AppendUint(out, uint64(len(stream)))
		out = append(out, stream...)
	}
	// Sentinel terminating the group list (256 is outside the code range).
	out = varint.AppendUint(out, 256)

	countStream := arith.AppendCompressUints(nil, counts)
	out = varint.AppendUint(out, uint64(len(counts)))
	out = varint.AppendUint(out, uint64(len(countStream)))
	out = append(out, countStream...)
	enc.Data = out
	return enc, nil
}

// buildWithParents is buildAndSerialize plus, for every emitted occupancy
// code, the occupancy code of its parent (0 for the root, which has none).
func buildWithParents(points geom.PointCloud, min geom.Point, side float64, depth int) (occ, parents []byte, counts []uint64, order []int) {
	// Octree_i is a comparison baseline, not a hot path, so it keeps the
	// simple bucket-per-node construction instead of the pooled scatter
	// buffers of buildAndSerialize.
	type pnode struct {
		pts        []int32
		center     geom.Point
		half       float64
		parentCode byte
	}
	all := make([]int32, len(points))
	for i := range all {
		all[i] = int32(i)
	}
	half := side / 2
	level := []pnode{{pts: all, center: min.Add(geom.Point{X: half, Y: half, Z: half}), half: half}}

	for d := 0; d < depth; d++ {
		next := make([]pnode, 0, len(level)*2)
		for _, nd := range level {
			var buckets [8][]int32
			for _, idx := range nd.pts {
				c := childIndex(points[idx], nd.center)
				buckets[c] = append(buckets[c], idx)
			}
			var code byte
			qh := nd.half / 2
			for c := 0; c < 8; c++ {
				if len(buckets[c]) == 0 {
					continue
				}
				code |= 1 << uint(c)
			}
			occ = append(occ, code)
			parents = append(parents, nd.parentCode)
			for c := 0; c < 8; c++ {
				if len(buckets[c]) == 0 {
					continue
				}
				next = append(next, pnode{
					pts:        buckets[c],
					center:     childCenter(nd.center, qh, c),
					half:       qh,
					parentCode: code,
				})
			}
		}
		level = next
	}

	order = make([]int, 0, len(points))
	counts = make([]uint64, 0, len(level))
	for _, leaf := range level {
		counts = append(counts, uint64(len(leaf.pts)))
		for _, idx := range leaf.pts {
			order = append(order, int(idx))
		}
	}
	return occ, parents, counts, order
}

// DecodeGrouped reconstructs a cloud from an EncodeGrouped stream.
func DecodeGrouped(data []byte) (geom.PointCloud, error) {
	return DecodeGroupedLimited(data, nil)
}

// DecodeGroupedLimited is DecodeGrouped charging decoded points, occupancy
// symbols, and tree nodes against b. A nil budget is unlimited. Panics on
// hostile bytes are recovered into ErrCorrupt-wrapped errors.
func DecodeGroupedLimited(data []byte, b *declimits.Budget) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	n, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("octree: point count: %w", err)
	}
	data = data[used:]
	if n == 0 {
		return geom.PointCloud{}, nil
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: point count overflow", ErrCorrupt)
	}
	if err := b.Points(int64(n)); err != nil {
		return nil, err
	}
	var min geom.Point
	var side float64
	if min.X, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if min.Y, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if min.Z, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if side, data, err = readFloat(data); err != nil {
		return nil, err
	}
	if side < 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("%w: invalid cube side %v", ErrCorrupt, side)
	}
	depth64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("octree: depth: %w", err)
	}
	data = data[used:]
	if depth64 > maxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeds limit", ErrCorrupt, depth64)
	}
	depth := int(depth64)

	total, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("octree: code count: %w", err)
	}
	data = data[used:]
	if total > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: code count overflow", ErrCorrupt)
	}

	// Read the per-parent-code group streams; an id above the 256 end mark
	// is corrupt.
	type group struct {
		codes []byte
		next  int
	}
	groups := make([]*group, 256)
	for {
		p, used, err := varint.Uint(data)
		if err != nil {
			return nil, fmt.Errorf("octree: group id: %w", err)
		}
		data = data[used:]
		if p == 256 {
			break
		}
		if p > 255 || groups[p] != nil {
			return nil, fmt.Errorf("%w: bad group id %d", ErrCorrupt, p)
		}
		cnt, payload, rest, err := readSection(data, "group")
		if err != nil {
			return nil, err
		}
		data = rest
		if uint64(cnt) > total {
			return nil, fmt.Errorf("%w: group of %d codes exceeds code total %d", ErrCorrupt, cnt, total)
		}
		codes, err := arith.AppendDecompressCodes(nil, payload, cnt, 256, b)
		if err != nil {
			return nil, err
		}
		groups[p] = &group{codes: codes}
	}

	countLen, countStream, _, err := readSection(data, "counts")
	if err != nil {
		return nil, err
	}
	// Every leaf holds at least one point, so a counts section longer than
	// the point total is corrupt; reject before decoding countLen symbols.
	if uint64(countLen) > n {
		return nil, fmt.Errorf("%w: %d leaf counts for %d points", ErrCorrupt, countLen, n)
	}
	counts, err := arith.AppendDecompressUints(nil, countStream, countLen, b)
	if err != nil {
		return nil, fmt.Errorf("octree: counts: %w", err)
	}

	// Replay the BFS, pulling each node's code from its parent's group.
	type cell struct {
		center     geom.Point
		half       float64
		parentCode byte
	}
	half := side / 2
	level := []cell{{center: min.Add(geom.Point{X: half, Y: half, Z: half}), half: half}}
	read := 0
	for d := 0; d < depth; d++ {
		next := make([]cell, 0, len(level)*2)
		for _, cl := range level {
			g := groups[cl.parentCode]
			if g == nil || g.next >= len(g.codes) {
				return nil, fmt.Errorf("%w: group %d exhausted", ErrCorrupt, cl.parentCode)
			}
			code := g.codes[g.next]
			g.next++
			read++
			if code == 0 {
				return nil, fmt.Errorf("%w: empty occupancy code", ErrCorrupt)
			}
			qh := cl.half / 2
			for c := 0; c < 8; c++ {
				if code&(1<<uint(c)) != 0 {
					next = append(next, cell{center: childCenter(cl.center, qh, c), half: qh, parentCode: code})
				}
			}
		}
		if err := b.Nodes(int64(len(next))); err != nil {
			return nil, err
		}
		level = next
	}
	if uint64(read) != total {
		return nil, fmt.Errorf("%w: read %d codes, header says %d", ErrCorrupt, read, total)
	}
	if len(level) != len(counts) {
		return nil, fmt.Errorf("%w: %d leaves but %d counts", ErrCorrupt, len(level), len(counts))
	}
	out := make(geom.PointCloud, 0, declimits.CapPrealloc(n))
	for i, cl := range level {
		cnt := counts[i]
		// Remaining-budget comparison: summing first could wrap uint64.
		if cnt == 0 || cnt > n-uint64(len(out)) {
			return nil, fmt.Errorf("%w: leaf counts disagree with point total", ErrCorrupt)
		}
		for k := uint64(0); k < cnt; k++ {
			out = append(out, cl.center)
		}
	}
	if uint64(len(out)) != n {
		return nil, fmt.Errorf("%w: decoded %d points, header says %d", ErrCorrupt, len(out), n)
	}
	return out, nil
}
