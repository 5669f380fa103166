// Package octree implements the baseline octree geometry coder of Botsch et
// al. that the paper adopts for dense points (§2.2, §3.2), plus the
// "Octree_i" variant of Garcia et al. that groups occupancy codes by their
// parent's occupancy code and compresses each group separately (§4.1).
//
// Construction follows §2.1: the bounding cube of the cloud is recursively
// partitioned until the leaf side length is at most twice the error bound,
// every non-leaf node is serialized breadth-first as an 8-bit occupancy
// code, and the code sequence is compressed with an adaptive arithmetic
// coder. Decoded points are the centers of the occupied leaves, repeated by
// the per-leaf point count so the decompressed cloud keeps a one-to-one
// mapping with the input.
package octree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed octree stream.
var ErrCorrupt = errors.New("octree: corrupt stream")

// maxDepth caps subdivision depth and bounds decoder work on corrupt
// headers. 48 levels are what the widest cloud core.Compress accepts needs
// for 2q leaves — coordinates to ±q·2^48, a cube 2^48 leaves across; with
// fewer, a far point that clustering labels dense comes back up to
// 2^(48-maxDepth)·q off.
const maxDepth = 48

// Encoded is the output of Encode.
type Encoded struct {
	// Data is the self-contained bit stream.
	Data []byte
	// DecodedOrder maps decoded point position j to the index of the
	// original point it reconstructs. It is side information for error
	// accounting and is not part of Data.
	DecodedOrder []int
	// EntropyTime is the wall time of the arithmetic coding passes
	// (occupancy + counts), separated from tree construction so per-stage
	// benchmarks can pinpoint the entropy bottleneck.
	EntropyTime time.Duration
}

// span is one octree node during breadth-first construction: a range of the
// scratch index array holding the points inside its cell. All nodes of one
// level share the same half side length, so only the center is per-node.
type span struct {
	start, end int
	center     geom.Point
}

// buildScratch holds the reusable state of one breadth-first construction:
// two ping-pong point index arrays, the per-point child octant cache, the
// node spans of the current and next level, and the occupancy/count output
// sequences. Pooled so steady-state Encode allocates only its output.
type buildScratch struct {
	idx     [2][]int32
	octant  []uint8
	cur     []span
	next    []span
	occ     []byte
	counts  []uint64
	counts8 []int32 // per-span flattened [8]int32 child counts
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns s with length n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeOptions tunes Encode.
type EncodeOptions struct {
	// Shards splits the occupancy and count entropy streams into this many
	// independently-coded shards (container v3). Values <= 1 keep the
	// legacy single-coder streams, byte-identical to previous releases.
	// The produced stream requires a shard-aware decoder (DecodeWith with
	// Sharded set) when Shards > 1.
	Shards int
	// BlockPack codes the per-leaf count stream with the blockpack codec
	// instead of the adaptive arithmetic coder (container v4) and moves the
	// occupancy stream into the sharded framing. The produced stream
	// requires DecodeWith with BlockPack set. Off keeps v2/v3 bytes
	// unchanged.
	BlockPack bool
	// Context prefixes the occupancy stream with the one-byte method marker
	// of the container v5 dialect, which says legacy: the v2/v3/v4 bytes
	// follow it unchanged. The produced stream requires DecodeWith with
	// Context set.
	Context bool
}

// Occupancy method markers of the Context (v5) dialect. Method 1 was the
// context-modeled coding of internal/ctxmodel, written only by opt-in runs
// and no longer decoded (ErrContextOccupancy).
const (
	occMethodLegacy  = 0 // the v2/v3/v4 occupancy bytes, unchanged
	occMethodRetired = 1 // the context-modeled occupancy coder
)

// ErrContextOccupancy refuses a v5 occupancy stream under method 1, the
// context-modeled coder that is no longer decoded. It wraps ErrCorrupt.
var ErrContextOccupancy = fmt.Errorf("%w: occupancy method 1, the retired context coder, is no longer decoded", ErrCorrupt)

// Encode compresses points so that every reconstructed coordinate differs
// from the original by at most q per dimension. An empty input encodes to a
// valid empty stream.
func Encode(points geom.PointCloud, q float64) (Encoded, error) {
	return EncodeWith(points, q, EncodeOptions{})
}

// EncodeWith is Encode with explicit options.
func EncodeWith(points geom.PointCloud, q float64, opts EncodeOptions) (Encoded, error) {
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
	// Pad the cube so leaves measure exactly 2q (§2.1): without padding
	// the leaf side would depend on the cloud extent and could shrink to
	// half the allowed size, wasting a full subdivision level.
	side := 2 * q * math.Pow(2, float64(depth))
	if side < cube.MaxDim() {
		side = cube.MaxDim()
	}
	header = appendFloat(header, cube.Min.X)
	header = appendFloat(header, cube.Min.Y)
	header = appendFloat(header, cube.Min.Z)
	header = appendFloat(header, side)
	header = varint.AppendUint(header, uint64(depth))

	scratch := buildPool.Get().(*buildScratch)
	occ, counts, order := buildAndSerialize(scratch, points, cube.Min, side, depth)
	enc.DecodedOrder = order

	// The two output streams are independent, so the occupancy and count
	// coders run side by side, and each stream additionally splits into
	// opts.Shards independent shards.
	entStart := time.Now()
	d := streamcodec.Dialect{Sharded: opts.Shards > 1, BlockPack: opts.BlockPack}
	var occStream, countStream []byte
	par.Do(
		func() {
			if opts.Context {
				// v5 dialect: a method marker precedes the stream.
				occStream = []byte{occMethodLegacy}
			}
			occStream = streamcodec.AppendCodes(occStream, d.Codec(streamcodec.Occupancy), occ, 256, opts.Shards)
		},
		func() {
			countStream = streamcodec.AppendUints(nil, d.Codec(streamcodec.Bulk), counts, opts.Shards)
		},
	)
	enc.EntropyTime = time.Since(entStart)

	out := header
	out = varint.AppendUint(out, uint64(len(occ)))
	out = varint.AppendUint(out, uint64(len(occStream)))
	out = append(out, occStream...)
	out = varint.AppendUint(out, uint64(len(counts)))
	out = varint.AppendUint(out, uint64(len(countStream)))
	out = append(out, countStream...)
	buildPool.Put(scratch)
	enc.Data = out
	return enc, nil
}

// depthFor returns the number of subdivision levels needed for leaf side
// lengths of at most 2q.
func depthFor(side, q float64) int {
	if side <= 2*q {
		return 0
	}
	d := math.Ceil(math.Log2(side / (2 * q)))
	if math.IsNaN(d) || d < 0 {
		return 0
	}
	if d > maxDepth {
		return maxDepth
	}
	return int(d)
}

// levelGrain is the least number of points in a chunk of one level's split
// pass: two passes over them, ~10 ns a point.
const levelGrain = 1 << 14

// buildAndSerialize performs the breadth-first construction on pooled
// scratch, returning the occupancy code sequence, the per-leaf point counts
// (in leaf emission order), and the decoded-order mapping. occ and counts
// alias the scratch and are only valid until it is returned to the pool;
// order is freshly allocated (it leaves Encode as DecodedOrder).
//
// Each level is a split pass over its nodes — every node's octant counts
// and point scatter touch only that node's range of the index arrays, so
// nodes shard freely — and a stitch appending the per-node results to the
// occupancy sequence and next level in node order. The nodes of a level
// tile the index arrays in order, so the pass is chunked by points, a node
// going to the chunk its first point is in: equal shares of points are
// equal shares of work, where equal shares of nodes are not.
func buildAndSerialize(s *buildScratch, points geom.PointCloud, min geom.Point, side float64, depth int) (occ []byte, counts []uint64, order []int) {
	n := len(points)
	src := grow(s.idx[0], n)
	dst := grow(s.idx[1], n)
	s.octant = grow(s.octant, n)
	for i := range src {
		src[i] = int32(i)
	}
	half := side / 2
	s.cur = append(s.cur[:0], span{start: 0, end: n, center: min.Add(geom.Point{X: half, Y: half, Z: half})})
	s.occ = s.occ[:0]

	splitNode := func(nd span, count *[8]int) {
		// Pass 1: octant of every point, and per-child counts.
		for _, idx := range src[nd.start:nd.end] {
			c := childIndex(points[idx], nd.center)
			s.octant[idx] = uint8(c)
			count[c]++
		}
		// Prefix offsets inside the node's range, then scatter.
		var pos [8]int
		pos[0] = nd.start
		for c := 1; c < 8; c++ {
			pos[c] = pos[c-1] + count[c-1]
		}
		for _, idx := range src[nd.start:nd.end] {
			c := s.octant[idx]
			dst[pos[c]] = idx
			pos[c]++
		}
	}

	for d := 0; d < depth; d++ {
		next := s.next[:0]
		qh := half / 2
		nodes := s.cur
		cnts := grow(s.counts8, 8*len(nodes))
		par.Chunks(n, levelGrain, func(_, lo, hi int) {
			k := sort.Search(len(nodes), func(k int) bool { return nodes[k].start >= lo })
			for ; k < len(nodes) && nodes[k].start < hi; k++ {
				var count [8]int
				splitNode(nodes[k], &count)
				for c := 0; c < 8; c++ {
					cnts[8*k+c] = int32(count[c])
				}
			}
		})
		s.counts8 = cnts
		// Stitch: emit codes and child spans in node order.
		for k, nd := range nodes {
			off := nd.start
			var code byte
			for c := 0; c < 8; c++ {
				cv := int(cnts[8*k+c])
				if cv == 0 {
					continue
				}
				code |= 1 << uint(c)
				next = append(next, span{
					start:  off,
					end:    off + cv,
					center: childCenter(nd.center, qh, c),
				})
				off += cv
			}
			s.occ = append(s.occ, code)
		}
		s.next = s.cur[:0]
		s.cur = next
		src, dst = dst, src
		half = qh
	}
	s.idx[0], s.idx[1] = src, dst

	order = make([]int, 0, n)
	s.counts = s.counts[:0]
	for _, leaf := range s.cur {
		s.counts = append(s.counts, uint64(leaf.end-leaf.start))
		for _, idx := range src[leaf.start:leaf.end] {
			order = append(order, int(idx))
		}
	}
	return s.occ, s.counts, order
}

// childIndex selects the octant of p relative to the cell center: bit 0 for
// x, bit 1 for y, bit 2 for z.
func childIndex(p, center geom.Point) int {
	c := 0
	if p.X >= center.X {
		c |= 1
	}
	if p.Y >= center.Y {
		c |= 2
	}
	if p.Z >= center.Z {
		c |= 4
	}
	return c
}

// childCenter returns the center of octant c of a cell centered at center
// with quarter side qh.
func childCenter(center geom.Point, qh float64, c int) geom.Point {
	off := geom.Point{X: -qh, Y: -qh, Z: -qh}
	if c&1 != 0 {
		off.X = qh
	}
	if c&2 != 0 {
		off.Y = qh
	}
	if c&4 != 0 {
		off.Z = qh
	}
	return center.Add(off)
}

// Decode reconstructs the point cloud from a stream produced by Encode.
func Decode(data []byte) (geom.PointCloud, error) {
	return DecodeLimited(data, nil)
}

// DecodeOptions selects the stream dialect and resources of one decode.
type DecodeOptions struct {
	// Budget charges decoded points, symbols, and nodes; nil is unlimited.
	Budget *declimits.Budget
	// Sharded declares that the entropy streams use the container v3
	// sharded framing. The container records this per section; it is not
	// inferred from the payload.
	Sharded bool
	// BlockPack declares that the count stream uses the blockpack codec in
	// the shard framing (container v4). Implies the sharded framing for the
	// occupancy stream.
	BlockPack bool
	// Context declares that the occupancy stream starts with a one-byte
	// method marker (container v5): occMethodLegacy keeps the dialect the
	// other options select; occMethodRetired is refused with
	// ErrContextOccupancy, any other marker as corrupt.
	Context bool
}

// DecodeLimited is Decode charging decoded points, occupancy symbols, and
// tree nodes against b. A nil budget is unlimited. Panics on hostile bytes
// are recovered into ErrCorrupt-wrapped errors.
func DecodeLimited(data []byte, b *declimits.Budget) (geom.PointCloud, error) {
	return DecodeWith(data, DecodeOptions{Budget: b})
}

// DecodeWith is Decode with explicit options.
func DecodeWith(data []byte, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeInto(geom.PointCloud{}, data, opts)
}

// DecodeInto is DecodeWith appending the points to dst. Given room for
// PointCount(data) points it writes each point once, where it stays.
func DecodeInto(dst geom.PointCloud, data []byte, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeRegionInto(dst, data, nil, opts)
}

// PointCount returns the number of points the header of an Encode stream
// declares, or zero if there is no reading it. The count is untrusted: a
// hint for sizing DecodeInto's destination, which the decode then holds
// the stream to.
func PointCount(data []byte) uint64 { return PointCountIn(data, nil) }

// stream is a parsed Encode stream: the header fields and the two entropy
// coded sections, still compressed.
type stream struct {
	n        uint64 // declared point count
	min      geom.Point
	side     float64
	depth    int
	occLen   int
	occ      []byte
	countLen int
	counts   []byte
}

// parse reads the header of an Encode stream and charges its declared
// point count against the budget. An empty cloud parses to n == 0 and
// nothing else.
func parse(data []byte, opts DecodeOptions) (st stream, err error) {
	var used int
	if st.n, used, err = varint.Uint(data); err != nil {
		return st, fmt.Errorf("octree: point count: %w", err)
	}
	data = data[used:]
	if st.n == 0 {
		return st, nil
	}
	if st.n > uint64(math.MaxInt32) {
		return st, fmt.Errorf("%w: point count overflow", ErrCorrupt)
	}
	if err := opts.Budget.Points(int64(st.n)); err != nil {
		return st, err
	}
	for _, f := range []*float64{&st.min.X, &st.min.Y, &st.min.Z, &st.side} {
		if *f, data, err = readFloat(data); err != nil {
			return st, err
		}
	}
	if st.side < 0 || math.IsNaN(st.side) || math.IsInf(st.side, 0) {
		return st, fmt.Errorf("%w: invalid cube side %v", ErrCorrupt, st.side)
	}
	depth, used, err := varint.Uint(data)
	if err != nil {
		return st, fmt.Errorf("octree: depth: %w", err)
	}
	data = data[used:]
	if depth > maxDepth {
		return st, fmt.Errorf("%w: depth %d exceeds limit", ErrCorrupt, depth)
	}
	st.depth = int(depth)

	if st.occLen, st.occ, data, err = readSection(data, "occupancy"); err != nil {
		return st, err
	}
	if st.countLen, st.counts, _, err = readSection(data, "counts"); err != nil {
		return st, err
	}
	// Every leaf holds at least one point, so a counts section longer than
	// the point total is corrupt; reject before decoding countLen symbols.
	if uint64(st.countLen) > st.n {
		return st, fmt.Errorf("%w: %d leaf counts for %d points", ErrCorrupt, st.countLen, st.n)
	}
	if opts.Context {
		if len(st.occ) < 1 {
			return st, fmt.Errorf("%w: missing occupancy method marker", ErrCorrupt)
		}
		switch st.occ[0] {
		case occMethodLegacy:
		case occMethodRetired:
			return st, ErrContextOccupancy
		default:
			return st, fmt.Errorf("%w: unknown occupancy method %d", ErrCorrupt, st.occ[0])
		}
		st.occ = st.occ[1:]
	}
	return st, nil
}

// decodeScratch holds what one decode needs besides its output: the
// occupancy codes, the leaf counts, and the breadth-first replay's level of
// cell centers with, for a region decode, their liveness. Pooled, and sized
// from the stream's declared leaf count, so a steady-state decode
// allocates none of it and a cold one allocates each slice once.
type decodeScratch struct {
	occ     []byte
	counts  []uint64
	centers []geom.Point
	live    []bool
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// DecodeRegionInto is the one decoder, appending to dst the points region
// keeps (all of them when it is nil): entropy-decode both sections, replay
// the subdivision, and append every leaf center, repeated by its count,
// that lies in the box. The budget is charged as a full decode charges it,
// declared point count included, so the two refuse the same streams. Given
// room for PointCountIn(data, region) points, a decode that keeps every
// point writes each once, where it stays.
func DecodeRegionInto(dst geom.PointCloud, data []byte, region *geom.AABB, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	st, err := parse(data, opts)
	if err != nil {
		return nil, err
	}
	if st.n == 0 {
		return dst, nil
	}
	if region != nil && cubeInside(st.min, st.side, *region) {
		region = nil // the box prunes nothing: no liveness to track
	}
	b := opts.Budget
	s := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(s)

	// The two streams are independent, like the coders that wrote them.
	d := streamcodec.Dialect{Sharded: opts.Sharded, BlockPack: opts.BlockPack}
	var occErr, countErr error
	par.Do(func() {
		s.occ, occErr = streamcodec.DecodeCodes(s.occ[:0], d.Codec(streamcodec.Occupancy), st.occ, st.occLen, 256, b)
	}, func() {
		s.counts, countErr = streamcodec.DecodeUints(s.counts[:0], d.Codec(streamcodec.Bulk), st.counts, st.countLen, b)
	})
	if occErr != nil {
		return nil, fmt.Errorf("octree: occupancy: %w", occErr)
	}
	if countErr != nil {
		return nil, fmt.Errorf("octree: counts: %w", countErr)
	}
	if err := s.replay(st, region, b); err != nil {
		return nil, err
	}

	// First hold the counts to the header, and learn how many points the
	// region keeps; then write them.
	keep, left := uint64(0), st.n
	for i, cnt := range s.counts {
		// Compare against what is left: summing cnt first could wrap
		// uint64 for adversarial counts.
		if cnt == 0 || cnt > left {
			return nil, fmt.Errorf("%w: leaf counts disagree with point total", ErrCorrupt)
		}
		left -= cnt
		if region != nil {
			s.live[i] = s.live[i] && region.Contains(s.centers[i])
			if !s.live[i] {
				continue
			}
		}
		keep += cnt
	}
	if left != 0 {
		return nil, fmt.Errorf("%w: decoded %d points, header says %d", ErrCorrupt, st.n-left, st.n)
	}
	out := slices.Grow(dst, declimits.CapPrealloc(keep))
	for i, c := range s.centers {
		if region != nil && !s.live[i] {
			continue
		}
		for k := s.counts[i]; k > 0; k-- {
			out = append(out, c)
		}
	}
	return out, nil
}

// replay runs the breadth-first subdivision that st's occupancy codes (in
// s.occ) describe and leaves the leaf centers in s.centers, in emission
// order; there must be exactly as many as s.counts. All cells of one level
// share one half side length, so the replay tracks centers only. A level
// is expanded in place, back to front: every cell has at least one child,
// so the children of the cells before cell i take at least i slots and
// writing them never reaches a cell not yet read. With a region, s.live
// tells which cells' cubes meet it; the cells below a dead one stay in the
// level (their codes occupy stream positions) but get no center.
func (s *decodeScratch) replay(st stream, region *geom.AABB, b *declimits.Budget) error {
	leaves := len(s.counts)
	half := st.side / 2
	s.centers = append(slices.Grow(s.centers[:0], declimits.CapPrealloc(uint64(leaves))), st.min.Add(geom.Point{X: half, Y: half, Z: half}))
	if region != nil {
		s.live = append(slices.Grow(s.live[:0], declimits.CapPrealloc(uint64(leaves))), true)
	}
	occ := s.occ
	for d := 0; d < st.depth; d++ {
		n := len(s.centers)
		if len(occ) < n {
			return fmt.Errorf("%w: occupancy stream too short", ErrCorrupt)
		}
		codes := occ[:n]
		occ = occ[n:]
		next := 0
		for _, code := range codes {
			if code == 0 {
				return fmt.Errorf("%w: empty occupancy code", ErrCorrupt)
			}
			next += bits.OnesCount8(code)
		}
		if next > leaves {
			return fmt.Errorf("%w: %d cells at level %d but %d leaf counts", ErrCorrupt, next, d+1, leaves)
		}
		if err := b.Nodes(int64(next)); err != nil {
			return err
		}
		s.centers = slices.Grow(s.centers, next-n)[:next]
		if region != nil {
			s.live = slices.Grow(s.live, next-n)[:next]
		}
		qh := half / 2
		w := next
		for i := n - 1; i >= 0; i-- {
			center, code := s.centers[i], codes[i]
			alive := region == nil || s.live[i]
			for c := 7; c >= 0; c-- {
				if code&(1<<uint(c)) == 0 {
					continue
				}
				w--
				if alive {
					s.centers[w] = childCenter(center, qh, c)
				}
				if region != nil {
					s.live[w] = alive && cellIntersects(s.centers[w], qh, *region)
				}
			}
		}
		half = qh
	}
	if len(occ) != 0 {
		return fmt.Errorf("%w: %d unused occupancy codes", ErrCorrupt, len(occ))
	}
	if len(s.centers) != leaves {
		return fmt.Errorf("%w: %d leaves but %d counts", ErrCorrupt, len(s.centers), leaves)
	}
	return nil
}

// readSection reads "elementCount, byteLength, bytes" written by Encode.
func readSection(data []byte, name string) (count int, payload, rest []byte, err error) {
	c, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("octree: %s count: %w", name, err)
	}
	data = data[used:]
	l, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("octree: %s length: %w", name, err)
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

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readFloat(data []byte) (float64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated float", ErrCorrupt)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
}
