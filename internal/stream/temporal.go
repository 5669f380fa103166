package stream

import (
	"fmt"
	"math"

	"dbgc"
	"dbgc/internal/arith"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// Temporal coding: the paper compresses single frames and notes they can
// be "a building block in compressing point cloud streams" (§1). This file
// is that composition for static or slowly changing scenes: an I-frame is
// a plain DBGC bit sequence; a P-frame codes the frame's octree occupancy
// under the *previous decoded frame's* occupancy as context (the classic
// double-buffered predicted octree). On a static scene most nodes repeat
// the previous occupancy pattern, so the context models concentrate and
// occupancy costs collapse; with sensor noise the prediction stays useful
// because parent-level structure is stable even when leaf cells flicker.
//
// The octree lives on a canonical grid anchored at the world origin with
// leaf side exactly 2q, so prediction contexts line up across frames
// regardless of per-frame bounding boxes, and reconstruction at leaf
// centers keeps the per-dimension error bound. Points outside the
// canonical cube (none in practice — it spans ±170 m at q = 2 cm) ride in
// a plain DBGC residual section.

// worldSpan is the canonical cube's minimum extent in meters per axis.
const worldSpan = 340.0

// temporalRef is the prediction dictionary: the previous decoded frame's
// occupancy sets, one per octree level of the canonical grid.
type temporalRef struct {
	q      float64
	depth  int
	side   float64
	half   float64
	levels []map[uint64]byte // level d: parent cell key -> child occupancy mask
}

const tAxisBits = 21

func packTemporal(x, y, z uint64) uint64 {
	return x<<(2*tAxisBits) | y<<tAxisBits | z
}

// canonicalGrid returns the depth and cube side for error bound q.
func canonicalGrid(q float64) (depth int, side float64) {
	depth = int(math.Ceil(math.Log2(worldSpan / (2 * q))))
	if depth < 1 {
		depth = 1
	}
	if depth > 3*tAxisBits/3 { // one axis must fit in 21 bits
		depth = tAxisBits
	}
	return depth, 2 * q * math.Pow(2, float64(depth))
}

// newTemporalRef builds the per-level occupancy dictionary from a decoded
// cloud.
func newTemporalRef(pc geom.PointCloud, q float64) *temporalRef {
	depth, side := canonicalGrid(q)
	ref := &temporalRef{q: q, depth: depth, side: side, half: side / 2}
	ref.levels = make([]map[uint64]byte, depth)
	for d := range ref.levels {
		ref.levels[d] = make(map[uint64]byte)
	}
	for _, p := range pc {
		cx, cy, cz, ok := ref.leafCell(p)
		if !ok {
			continue
		}
		// Walk up the tree: at level d the node key is the cell index
		// shifted down, and the child octant is the next bit triple.
		for d := depth - 1; d >= 0; d-- {
			shift := uint(depth - 1 - d)
			px, py, pz := cx>>(shift+1), cy>>(shift+1), cz>>(shift+1)
			oct := byte(cx>>shift&1) | byte(cy>>shift&1)<<1 | byte(cz>>shift&1)<<2
			key := packTemporal(px, py, pz)
			ref.levels[d][key] |= 1 << oct
		}
	}
	return ref
}

// leafCell quantizes p onto the canonical leaf grid.
func (r *temporalRef) leafCell(p geom.Point) (x, y, z uint64, ok bool) {
	cells := float64(uint64(1) << uint(r.depth))
	fx := (p.X + r.half) / r.side * cells
	fy := (p.Y + r.half) / r.side * cells
	fz := (p.Z + r.half) / r.side * cells
	if fx < 0 || fy < 0 || fz < 0 || fx >= cells || fy >= cells || fz >= cells {
		return 0, 0, 0, false
	}
	return uint64(fx), uint64(fy), uint64(fz), true
}

// leafCenter returns the center of a canonical leaf cell.
func (r *temporalRef) leafCenter(x, y, z uint64) geom.Point {
	cells := float64(uint64(1) << uint(r.depth))
	step := r.side / cells
	return geom.Point{
		X: -r.half + (float64(x)+0.5)*step,
		Y: -r.half + (float64(y)+0.5)*step,
		Z: -r.half + (float64(z)+0.5)*step,
	}
}

// prevMask returns the previous frame's child-occupancy mask for the node
// at level d with the given parent-cell key (0 when the node was empty).
func (r *temporalRef) prevMask(d int, key uint64) byte {
	return r.levels[d][key]
}

// pCoder holds the context models of the predicted octree: one occupancy
// model per previous-frame occupancy mask.
type pCoder struct {
	occ [256]*arith.Model
}

func (c *pCoder) model(prev byte) *arith.Model {
	if c.occ[prev] == nil {
		c.occ[prev] = arith.NewModel(256)
	}
	return c.occ[prev]
}

// encodeP codes a frame against the reference. It returns the payload, the
// decode-order mapping to original indices, and the count of in-grid
// points (the rest travel in the DBGC residual).
func encodeP(pc geom.PointCloud, ref *temporalRef, opts dbgc.Options) (payload []byte, mapping []int32, inGrid int, err error) {
	type nodeT struct {
		x, y, z uint64 // node cell at current level
		idx     []int32
	}
	cells := make([][3]uint64, 0, len(pc))
	var rootIdx []int32
	var fresh geom.PointCloud
	var freshOrig []int32
	cellOf := make([]int32, len(pc)) // index into cells, -1 for fresh
	for pi, p := range pc {
		x, y, z, ok := ref.leafCell(p)
		if !ok {
			fresh = append(fresh, p)
			freshOrig = append(freshOrig, int32(pi))
			cellOf[pi] = -1
			continue
		}
		cellOf[pi] = int32(len(cells))
		cells = append(cells, [3]uint64{x, y, z})
		rootIdx = append(rootIdx, int32(pi))
		inGrid++
	}

	e := arith.NewEncoder()
	coder := &pCoder{}
	var counts []uint64
	level := []nodeT{{idx: rootIdx}}
	for d := 0; d < ref.depth; d++ {
		shift := uint(ref.depth - 1 - d)
		next := make([]nodeT, 0, len(level)*2)
		for _, nd := range level {
			var buckets [8][]int32
			for _, pi := range nd.idx {
				c := cells[cellOf[pi]]
				oct := int(c[0]>>shift&1) | int(c[1]>>shift&1)<<1 | int(c[2]>>shift&1)<<2
				buckets[oct] = append(buckets[oct], pi)
			}
			var code byte
			for o := 0; o < 8; o++ {
				if len(buckets[o]) > 0 {
					code |= 1 << uint(o)
				}
			}
			prev := ref.prevMask(d, packTemporal(nd.x, nd.y, nd.z))
			e.Encode(coder.model(prev), int(code))
			for o := 0; o < 8; o++ {
				if len(buckets[o]) == 0 {
					continue
				}
				next = append(next, nodeT{
					x:   nd.x<<1 | uint64(o&1),
					y:   nd.y<<1 | uint64(o>>1&1),
					z:   nd.z<<1 | uint64(o>>2&1),
					idx: buckets[o],
				})
			}
		}
		level = next
	}
	for _, leaf := range level {
		counts = append(counts, uint64(len(leaf.idx)))
		mapping = append(mapping, leaf.idx...)
	}
	occStream := e.Finish()
	countStream := arith.AppendCompressUints(nil, counts)

	freshData, freshStats, err := dbgc.Compress(fresh, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("stream: P-frame residual: %w", err)
	}
	for _, j := range freshStats.Mapping {
		mapping = append(mapping, freshOrig[j])
	}

	payload = varint.AppendUint(payload, uint64(inGrid))
	payload = varint.AppendUint(payload, uint64(len(counts)))
	payload = appendBytes(payload, occStream)
	payload = appendBytes(payload, countStream)
	payload = appendBytes(payload, freshData)
	return payload, mapping, inGrid, nil
}

// decodeP reconstructs a P-frame given the reference, bounding its work by
// limits (zero = unlimited). Panics on hostile bytes are recovered into
// ErrCorrupt-wrapped errors.
func decodeP(payload []byte, ref *temporalRef, limits dbgc.DecodeLimits) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	b := newStreamBudget(limits)
	nPts, used, err := varint.Uint(payload)
	if err != nil {
		return nil, fmt.Errorf("stream: P point count: %w", err)
	}
	payload = payload[used:]
	nLeaves, used, err := varint.Uint(payload)
	if err != nil {
		return nil, fmt.Errorf("stream: P leaf count: %w", err)
	}
	payload = payload[used:]
	if nLeaves > nPts || nPts > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: P header (%d leaves, %d points)", ErrCorrupt, nLeaves, nPts)
	}
	occStream, payload, err := readBytes(payload, "occupancy")
	if err != nil {
		return nil, err
	}
	countStream, payload, err := readBytes(payload, "counts")
	if err != nil {
		return nil, err
	}
	freshData, _, err := readBytes(payload, "residual")
	if err != nil {
		return nil, err
	}
	if err := b.Points(int64(nPts)); err != nil {
		return nil, err
	}
	counts, err := arith.AppendDecompressUints(nil, countStream, int(nLeaves), b)
	if err != nil {
		return nil, fmt.Errorf("stream: P counts: %w", err)
	}

	type nodeT struct{ x, y, z uint64 }
	d := arith.NewDecoder(occStream)
	coder := &pCoder{}
	var level []nodeT
	if nPts > 0 {
		level = []nodeT{{}}
	}
	for lv := 0; lv < ref.depth && len(level) > 0; lv++ {
		if err := b.Nodes(int64(len(level))); err != nil {
			return nil, err
		}
		next := make([]nodeT, 0, len(level)*2)
		for _, nd := range level {
			prev := ref.prevMask(lv, packTemporal(nd.x, nd.y, nd.z))
			code, err := d.Decode(coder.model(prev))
			if err != nil {
				return nil, fmt.Errorf("stream: P occupancy: %w", err)
			}
			if code == 0 {
				return nil, fmt.Errorf("%w: empty P occupancy code", ErrCorrupt)
			}
			for o := 0; o < 8; o++ {
				if code&(1<<uint(o)) == 0 {
					continue
				}
				next = append(next, nodeT{
					x: nd.x<<1 | uint64(o&1),
					y: nd.y<<1 | uint64(o>>1&1),
					z: nd.z<<1 | uint64(o>>2&1),
				})
			}
			if uint64(len(next)) > nPts {
				return nil, fmt.Errorf("%w: P tree wider than point count", ErrCorrupt)
			}
		}
		level = next
	}
	if uint64(len(level)) != nLeaves {
		return nil, fmt.Errorf("%w: decoded %d leaves, header says %d", ErrCorrupt, len(level), nLeaves)
	}
	out := make(geom.PointCloud, 0, declimits.CapPrealloc(nPts))
	for i, leaf := range level {
		cnt := counts[i]
		if cnt == 0 || uint64(len(out))+cnt > nPts {
			return nil, fmt.Errorf("%w: P leaf counts disagree with total", ErrCorrupt)
		}
		c := ref.leafCenter(leaf.x, leaf.y, leaf.z)
		for n := uint64(0); n < cnt; n++ {
			out = append(out, c)
		}
	}
	if uint64(len(out)) != nPts {
		return nil, fmt.Errorf("%w: decoded %d points, header says %d", ErrCorrupt, len(out), nPts)
	}
	fresh, err := dbgc.DecompressWith(freshData, dbgc.DecompressOptions{Limits: limits})
	if err != nil {
		return nil, fmt.Errorf("stream: P residual: %w", err)
	}
	return append(out, fresh...), nil
}

func appendBytes(dst, b []byte) []byte {
	dst = varint.AppendUint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(data []byte, name string) (payload, rest []byte, err error) {
	n, used, err := varint.Uint(data)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: %s length: %w", name, err)
	}
	data = data[used:]
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: %s truncated", ErrCorrupt, name)
	}
	return data[:n], data[n:], nil
}
