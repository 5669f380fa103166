// Package gpcc implements a simplified G-PCC (MPEG TMC13) geometry coder,
// the strongest prior-work baseline in the paper's evaluation (§2.2, §4.1).
// Two of TMC13's optimizations that matter on sparse LiDAR clouds are
// reproduced:
//
//   - neighbour-dependent entropy coding: each octree node's occupancy code
//     is coded under a context selected by which of its six face neighbours
//     at the same level are occupied — planar structure (ground, walls)
//     concentrates occupancy patterns per context;
//   - direct point coding (DPC / "inferred direct coding mode"): an
//     isolated node — no face neighbours, parent with at most two occupied
//     children — holding a single distinct quantized location stops
//     subdividing and codes the remaining path bits directly.
//
// The full TMC13 triangle ("trisoup") mode is out of scope; the paper runs
// TMC13 in octree mode.
package gpcc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dbgc/internal/arith"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("gpcc: corrupt stream")

const maxDepth = 30

// Encoded is the output of Encode.
type Encoded struct {
	Data []byte
	// DecodedOrder maps decoded position j to the original index it
	// reconstructs.
	DecodedOrder []int
}

// occContexts is the size of the occupancy context bank: the 6-bit
// face-neighbour mask is bucketed by popcount (0, 1, 2, 3+). A raw
// 64-way mask split diluted adaptation faster than the conditioning paid
// on ~100k-point frames; the popcount bucket keeps the isolation signal
// (ground planes vs edges vs interior) while the bank's snapshot seeding
// lets late-splitting contexts inherit the shared statistics. Octant
// reflection is applied only to nodes with occupied neighbours: isolated
// nodes (the bulk of very sparse clouds) have no octant-symmetric
// structure to exploit, and reflecting them splits the model's mass.
const occContexts = 4

// coder bundles the context models shared by encode and decode: the
// occupancy context bank, plus the DPC flag and path models.
type coder struct {
	occ  *ctxmodel.Bank
	flag *arith.Model
	path *arith.Model // DPC octants; adaptive, so octant bias is exploited
}

func newCoder() *coder {
	return &coder{occ: ctxmodel.NewBank(occContexts, 256), flag: arith.NewModel(2), path: arith.NewModel(8)}
}

// occCtx maps a 6-bit face-neighbour mask to its bank context.
func occCtx(mask int) int {
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		n++
	}
	if n > occContexts-1 {
		n = occContexts - 1
	}
	return n
}

// dpcEligible reports whether a node may use direct point coding. Both
// inputs are known to the decoder before the node is coded, so eligibility
// itself costs no bits.
// dpcMinLevels gates direct point coding to nodes with enough remaining
// depth: short chains are cheaper through the occupancy models, long
// isolated descents through the path model.
const dpcMinLevels = 6

func dpcEligible(parentOcc byte, neighborMask, level, depth int) bool {
	return parentOcc != 0 && neighborMask == 0 && depth-level >= dpcMinLevels
}

// cellKey is the map key for neighbour lookups. Coordinates can reach
// 2^30 at full depth, so an exact composite key is used rather than packed
// bits.
func cellKey(x, y, z uint32) [3]uint32 {
	return [3]uint32{x, y, z}
}

// neighborMask returns the 6-bit mask of occupied face neighbours of cell
// (x,y,z) in the set of occupied cells at the current level.
func neighborMask(set map[[3]uint32]struct{}, x, y, z uint32) int {
	mask := 0
	if _, ok := set[cellKey(x+1, y, z)]; ok {
		mask |= 1
	}
	if x > 0 {
		if _, ok := set[cellKey(x-1, y, z)]; ok {
			mask |= 2
		}
	}
	if _, ok := set[cellKey(x, y+1, z)]; ok {
		mask |= 4
	}
	if y > 0 {
		if _, ok := set[cellKey(x, y-1, z)]; ok {
			mask |= 8
		}
	}
	if _, ok := set[cellKey(x, y, z+1)]; ok {
		mask |= 16
	}
	if z > 0 {
		if _, ok := set[cellKey(x, y, z-1)]; ok {
			mask |= 32
		}
	}
	return mask
}

// Encode compresses points so every reconstructed coordinate is within q of
// the original per dimension.
func Encode(points geom.PointCloud, q float64) (Encoded, error) {
	if q <= 0 {
		return Encoded{}, fmt.Errorf("gpcc: error bound must be positive, got %v", q)
	}
	var enc Encoded
	out := make([]byte, 0, 64)
	out = varint.AppendUint(out, uint64(len(points)))
	if len(points) == 0 {
		enc.Data = out
		return enc, nil
	}
	cube := geom.Bounds(points).Cube()
	extent := cube.MaxDim()
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
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cube.Min.X))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cube.Min.Y))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(cube.Min.Z))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(side))
	out = varint.AppendUint(out, uint64(depth))

	// Quantize up front so "same location" checks are exact.
	n := len(points)
	cells := make([][3]uint32, n)
	maxCell := uint32(1)<<uint(depth) - 1
	scale := 0.0
	if side > 0 {
		scale = float64(uint64(1)<<uint(depth)) / side
	}
	for i, p := range points {
		cells[i] = [3]uint32{
			quant(p.X-cube.Min.X, scale, maxCell),
			quant(p.Y-cube.Min.Y, scale, maxCell),
			quant(p.Z-cube.Min.Z, scale, maxCell),
		}
	}

	type enode struct {
		x, y, z   uint32 // cell coordinates at the current level
		parentOcc byte
		idx       []int32
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	e := arith.NewEncoder()
	c := newCoder()
	var order []int
	var counts []uint64
	emitLeaf := func(idx []int32) {
		counts = append(counts, uint64(len(idx)))
		for _, i := range idx {
			order = append(order, int(i))
		}
	}

	level := []enode{{idx: all}}
	for d := 0; d < depth; d++ {
		set := make(map[[3]uint32]struct{}, len(level))
		for _, nd := range level {
			set[cellKey(nd.x, nd.y, nd.z)] = struct{}{}
		}
		shift := uint(depth - 1 - d)
		next := make([]enode, 0, len(level)*2)
		for _, nd := range level {
			mask := neighborMask(set, nd.x, nd.y, nd.z)
			if dpcEligible(nd.parentOcc, mask, d, depth) {
				if loc, same := sameLocation(cells, nd.idx); same {
					e.Encode(c.flag, 1)
					for l := d; l < depth; l++ {
						s := uint(depth - 1 - l)
						oct := int(loc[0]>>s&1) | int(loc[1]>>s&1)<<1 | int(loc[2]>>s&1)<<2
						e.Encode(c.path, oct)
					}
					emitLeaf(nd.idx)
					continue
				}
				e.Encode(c.flag, 0)
			}
			var buckets [8][]int32
			for _, i := range nd.idx {
				oct := int(cells[i][0]>>shift&1) | int(cells[i][1]>>shift&1)<<1 | int(cells[i][2]>>shift&1)<<2
				buckets[oct] = append(buckets[oct], i)
			}
			var code byte
			for o := 0; o < 8; o++ {
				if len(buckets[o]) > 0 {
					code |= 1 << uint(o)
				}
			}
			sym := code
			if mask != 0 {
				oct := uint8(nd.x&1) | uint8(nd.y&1)<<1 | uint8(nd.z&1)<<2
				sym = ctxmodel.Reflect(code, oct)
			}
			c.occ.Encode(e, occCtx(mask), int(sym))
			for o := 0; o < 8; o++ {
				if len(buckets[o]) == 0 {
					continue
				}
				next = append(next, enode{
					x:         nd.x<<1 | uint32(o&1),
					y:         nd.y<<1 | uint32(o>>1&1),
					z:         nd.z<<1 | uint32(o>>2&1),
					parentOcc: code,
					idx:       buckets[o],
				})
			}
		}
		level = next
	}
	for _, nd := range level {
		emitLeaf(nd.idx)
	}

	payload := e.Finish()
	countStream := arith.AppendCompressUints(nil, counts)
	out = varint.AppendUint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = varint.AppendUint(out, uint64(len(counts)))
	out = varint.AppendUint(out, uint64(len(countStream)))
	out = append(out, countStream...)
	enc.Data = out
	enc.DecodedOrder = order
	return enc, nil
}

func quant(v, scale float64, maxCell uint32) uint32 {
	c := uint32(v * scale)
	if c > maxCell {
		c = maxCell
	}
	return c
}

// sameLocation reports whether all points in idx share one quantized cell.
func sameLocation(cells [][3]uint32, idx []int32) ([3]uint32, bool) {
	loc := cells[idx[0]]
	for _, i := range idx[1:] {
		if cells[i] != loc {
			return loc, false
		}
	}
	return loc, true
}

// Decode reconstructs the cloud from an Encode stream.
func Decode(data []byte) (geom.PointCloud, error) {
	return DecodeLimited(data, nil)
}

// DecodeLimited is Decode charging decoded points, occupancy symbols, and
// tree nodes against b. A nil budget is unlimited. Panics on hostile bytes
// are recovered into ErrCorrupt-wrapped errors.
func DecodeLimited(data []byte, b *declimits.Budget) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	n64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("gpcc: point count: %w", err)
	}
	data = data[used:]
	if n64 == 0 {
		return geom.PointCloud{}, nil
	}
	if n64 > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: point count overflow", ErrCorrupt)
	}
	if len(data) < 32 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	min := geom.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
	}
	side := math.Float64frombits(binary.LittleEndian.Uint64(data[24:]))
	data = data[32:]
	if side < 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("%w: invalid side %v", ErrCorrupt, side)
	}
	depth64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("gpcc: depth: %w", err)
	}
	data = data[used:]
	if depth64 > maxDepth {
		return nil, fmt.Errorf("%w: depth %d exceeds limit", ErrCorrupt, depth64)
	}
	depth := int(depth64)
	plen, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("gpcc: payload length: %w", err)
	}
	data = data[used:]
	if plen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	payload := data[:plen]
	data = data[plen:]
	countLen64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("gpcc: count length: %w", err)
	}
	data = data[used:]
	streamLen, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("gpcc: count stream length: %w", err)
	}
	data = data[used:]
	if streamLen > uint64(len(data)) || countLen64 > n64 {
		return nil, fmt.Errorf("%w: count section truncated", ErrCorrupt)
	}
	if err := b.Points(int64(n64)); err != nil {
		return nil, err
	}
	counts, err := arith.AppendDecompressUints(nil, data[:streamLen], int(countLen64), b)
	if err != nil {
		return nil, fmt.Errorf("gpcc: counts: %w", err)
	}

	if err := b.Contexts(occContexts, ctxmodel.ModelBytes256); err != nil {
		return nil, err
	}
	d := arith.NewDecoder(payload)
	c := newCoder()
	step := 0.0
	if depth > 0 {
		step = side / float64(uint64(1)<<uint(depth))
	}

	// Leaves are reconstructed in stream order: DPC leaves inline, final-
	// level leaves at the end — matching the encoder's emission order.
	type dleaf struct{ x, y, z uint32 }
	var leaves []dleaf
	type dnode struct {
		x, y, z   uint32
		parentOcc byte
	}
	level := []dnode{{}}
	for lv := 0; lv < depth; lv++ {
		// Each node of this level decodes at least one entropy symbol and
		// its children were materialized below; charge the level before
		// building the neighbour set (also sized by it).
		if err := b.Nodes(int64(len(level))); err != nil {
			return nil, err
		}
		set := make(map[[3]uint32]struct{}, len(level))
		for _, nd := range level {
			set[cellKey(nd.x, nd.y, nd.z)] = struct{}{}
		}
		next := make([]dnode, 0, len(level)*2)
		for _, nd := range level {
			mask := neighborMask(set, nd.x, nd.y, nd.z)
			if dpcEligible(nd.parentOcc, mask, lv, depth) {
				f, err := d.Decode(c.flag)
				if err != nil {
					return nil, fmt.Errorf("gpcc: dpc flag: %w", err)
				}
				if f == 1 {
					if err := b.Nodes(int64(depth - lv)); err != nil {
						return nil, err
					}
					x, y, z := nd.x, nd.y, nd.z
					for l := lv; l < depth; l++ {
						oct, err := d.Decode(c.path)
						if err != nil {
							return nil, fmt.Errorf("gpcc: dpc path: %w", err)
						}
						x = x<<1 | uint32(oct&1)
						y = y<<1 | uint32(oct>>1&1)
						z = z<<1 | uint32(oct>>2&1)
					}
					leaves = append(leaves, dleaf{x, y, z})
					continue
				}
			}
			sym, err := c.occ.Decode(d, occCtx(mask))
			if err != nil {
				return nil, fmt.Errorf("gpcc: occupancy: %w", err)
			}
			code := sym
			if mask != 0 {
				oct := uint8(nd.x&1) | uint8(nd.y&1)<<1 | uint8(nd.z&1)<<2
				code = int(ctxmodel.Reflect(byte(sym), oct))
			}
			if code == 0 {
				return nil, fmt.Errorf("%w: empty occupancy code", ErrCorrupt)
			}
			for o := 0; o < 8; o++ {
				if code&(1<<uint(o)) == 0 {
					continue
				}
				next = append(next, dnode{
					x:         nd.x<<1 | uint32(o&1),
					y:         nd.y<<1 | uint32(o>>1&1),
					z:         nd.z<<1 | uint32(o>>2&1),
					parentOcc: byte(code),
				})
			}
		}
		level = next
	}
	for _, nd := range level {
		leaves = append(leaves, dleaf{nd.x, nd.y, nd.z})
	}

	if len(leaves) != len(counts) {
		return nil, fmt.Errorf("%w: %d leaves but %d counts", ErrCorrupt, len(leaves), len(counts))
	}
	// Clamp the header-declared count before it becomes an allocation
	// capacity: a ~50-byte depth-0 stream declaring 2^30 points would
	// otherwise attempt a 24 GB up-front allocation. Appends grow past the
	// clamp when the counts really sum that high (bounded by b.Points above).
	out := make(geom.PointCloud, 0, declimits.CapPrealloc(n64))
	half := side / 2
	for i, lf := range leaves {
		cnt := counts[i]
		if cnt == 0 || uint64(len(out))+cnt > n64 {
			return nil, fmt.Errorf("%w: leaf counts disagree with point total", ErrCorrupt)
		}
		var p geom.Point
		if depth == 0 {
			p = min.Add(geom.Point{X: half, Y: half, Z: half})
		} else {
			p = geom.Point{
				X: min.X + (float64(lf.x)+0.5)*step,
				Y: min.Y + (float64(lf.y)+0.5)*step,
				Z: min.Z + (float64(lf.z)+0.5)*step,
			}
		}
		for k := uint64(0); k < cnt; k++ {
			out = append(out, p)
		}
	}
	if uint64(len(out)) != n64 {
		return nil, fmt.Errorf("%w: decoded %d points, want %d", ErrCorrupt, len(out), n64)
	}
	return out, nil
}
