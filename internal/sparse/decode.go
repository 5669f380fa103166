package sparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/polyline"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed sparse stream.
var ErrCorrupt = errors.New("sparse: corrupt stream")

// ErrGroupCRC reports a radial group whose CRC-32C (carried by sharded v3
// streams) does not match its payload. It wraps ErrCorrupt.
var ErrGroupCRC = fmt.Errorf("%w: group CRC mismatch", ErrCorrupt)

// DecodeOptions configures decoding. The zero value decodes without
// limits.
type DecodeOptions struct {
	// Budget, when non-nil, bounds decoded points, entropy symbols, and
	// memory. It is safe to share with concurrently decoding sections.
	Budget *declimits.Budget
	// Salvage skips radial groups whose CRC-32C mismatches instead of
	// failing the whole section. Only sharded (v3) streams carry group
	// CRCs; on legacy streams the option is a no-op. The returned cloud
	// holds the points of every intact group, in group order.
	Salvage bool
}

// groupFlags carries the per-stream dialect bits every group decode needs.
type groupFlags struct {
	cartesian  bool
	plainDelta bool
	sharded    bool
	blockpack  bool
	ctx        bool
}

// Decode reconstructs the polyline points from a stream produced by
// Encode, in the same order as Encoded.DecodedOrder.
func Decode(data []byte) (geom.PointCloud, error) {
	return DecodeWith(data, DecodeOptions{})
}

// DecodeWith is Decode with explicit options. Panics on hostile bytes are
// recovered into ErrCorrupt-wrapped errors.
func DecodeWith(data []byte, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeInto(geom.PointCloud{}, data, opts)
}

// DecodeInto is DecodeWith appending the points to dst. Given room for
// PointCount(data) points, every radial group writes its points once,
// where they stay.
func DecodeInto(dst geom.PointCloud, data []byte, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	fr, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	return fr.decodeGroups(dst, fr.groups, opts)
}

// PointCount returns the number of points the group headers of an Encode
// stream declare, or what of it can be read: an untrusted hint for sizing
// DecodeInto's destination.
func PointCount(data []byte) uint64 {
	fr, _ := parseFrame(data)
	var n uint64
	for _, g := range fr.groups {
		n += fr.groupPoints(g)
	}
	return n
}

// frame is a parsed sparse stream: the stream-wide header and the payloads
// of the radial groups, each still an independently entropy-coded section.
type frame struct {
	q      float64
	gf     groupFlags
	groups [][]byte
}

// parseFrame reads the stream header and slices the group payloads out of
// the stream (a cheap varint walk). On error the frame holds the groups
// before the damage.
func parseFrame(data []byte) (fr frame, err error) {
	flags, used, err := varint.Uint(data)
	if err != nil {
		return fr, fmt.Errorf("sparse: flags: %w", err)
	}
	data = data[used:]
	if len(data) < 8 {
		return fr, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	fr.q = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if !(fr.q > 0) || math.IsInf(fr.q, 0) {
		return fr, fmt.Errorf("%w: invalid error bound %v", ErrCorrupt, fr.q)
	}
	fr.gf = groupFlags{
		cartesian:  flags&flagCartesian != 0,
		plainDelta: flags&flagPlainDelta != 0,
		sharded:    flags&flagSharded != 0,
		blockpack:  flags&flagBlockPack != 0,
		ctx:        flags&flagContext != 0,
	}
	nGroups, used, err := varint.Uint(data)
	if err != nil {
		return fr, fmt.Errorf("sparse: group count: %w", err)
	}
	data = data[used:]
	if nGroups > 1024 {
		return fr, fmt.Errorf("%w: implausible group count %d", ErrCorrupt, nGroups)
	}
	fr.groups = make([][]byte, 0, nGroups)
	for gi := uint64(0); gi < nGroups; gi++ {
		glen, used, err := varint.Uint(data)
		if err != nil {
			return fr, fmt.Errorf("sparse: group %d length: %w", gi, err)
		}
		data = data[used:]
		if glen > uint64(len(data)) {
			return fr, fmt.Errorf("%w: group %d truncated", ErrCorrupt, gi)
		}
		fr.groups = append(fr.groups, data[:glen])
		data = data[glen:]
	}
	return fr, nil
}

// groupHeader is the fixed part of a group payload.
type groupHeader struct {
	rMax                  float64 // the group's outer radius; polar streams only
	thPhi, thR            int64
	nLines, nTails, nRefs int
}

// readGroupHeader reads the header of a group payload (its CRC prefix, if
// the dialect has one, already stripped) and returns what follows it.
func (fr frame) readGroupHeader(data []byte) (h groupHeader, rest []byte, err error) {
	if !fr.gf.cartesian {
		if len(data) < 8 {
			return h, nil, fmt.Errorf("%w: missing rMax", ErrCorrupt)
		}
		h.rMax = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(h.rMax) || math.IsInf(h.rMax, 0) || h.rMax < 0 {
			return h, nil, fmt.Errorf("%w: invalid rMax %v", ErrCorrupt, h.rMax)
		}
	}
	var hdr [5]uint64
	for i := range hdr {
		v, used, err := varint.Uint(data)
		if err != nil {
			return h, nil, fmt.Errorf("sparse: group header[%d]: %w", i, err)
		}
		hdr[i] = v
		data = data[used:]
	}
	if hdr[2] > sane || hdr[3] > sane || hdr[4] > sane {
		return h, nil, fmt.Errorf("%w: implausible group header", ErrCorrupt)
	}
	h.thPhi, h.thR = int64(hdr[0]), int64(hdr[1])
	h.nLines, h.nTails, h.nRefs = int(hdr[2]), int(hdr[3]), int(hdr[4])
	return h, data, nil
}

// sane bounds the line, tail and reference counts a group header may
// declare, and the length of one polyline.
const sane = 1 << 28

// groupBody strips the CRC-32C prefix that sharded (v3) and blockpacked
// (v4) groups carry, without checking it.
func (fr frame) groupBody(group []byte) []byte {
	if fr.gf.sharded || fr.gf.blockpack {
		return group[min(4, len(group)):]
	}
	return group
}

// groupPoints returns the point count group's header declares (a line has
// a head and its tails), or zero if the header does not parse.
func (fr frame) groupPoints(group []byte) uint64 {
	h, _, err := fr.readGroupHeader(fr.groupBody(group))
	if err != nil {
		return 0
	}
	return uint64(h.nLines) + uint64(h.nTails)
}

// decodeGroups decodes groups, a subset of fr.groups in stream order, and
// appends their points to dst. Each group is an independently entropy-coded
// section and decodes into its own window of one buffer sized from the
// group headers, so the groups go through par.Workers: however many the
// stream declares, at most GOMAXPROCS workers and scratches are in use.
func (fr frame) decodeGroups(dst geom.PointCloud, groups [][]byte, opts DecodeOptions) (geom.PointCloud, error) {
	offs := make([]uint64, len(groups)+1)
	for gi, g := range groups {
		offs[gi+1] = offs[gi] + fr.groupPoints(g)
	}
	dst = slices.Grow(dst, opts.Budget.Prealloc(offs[len(groups)]))
	pts := make([]geom.PointCloud, len(groups))
	errs := make([]error, len(groups))
	par.Workers(len(groups), func(next func() (int, bool)) {
		s := groupPool.Get().(*groupScratch)
		defer groupPool.Put(s)
		for gi, ok := next(); ok; gi, ok = next() {
			func() {
				defer declimits.Recover(&errs[gi], ErrCorrupt)
				pts[gi], errs[gi] = fr.decodeGroupChecked(dst.Window(offs[gi], offs[gi+1]-offs[gi]), groups[gi], s, opts.Budget)
			}()
		}
	})
	for gi := range groups {
		if errs[gi] != nil {
			// A CRC-attributable failure condemns only its own group when
			// the caller asked for salvage; everything else stays fatal.
			if opts.Salvage && errors.Is(errs[gi], ErrGroupCRC) {
				pts[gi] = nil
				continue
			}
			return nil, fmt.Errorf("sparse: group %d: %w", gi, errs[gi])
		}
	}
	return dst.Join(pts...), nil
}

// decodeGroupChecked verifies the CRC-32C prefix that sharded (v3) and
// blockpacked (v4) groups carry, then decodes the group payload. Legacy
// groups pass through unchanged.
func (fr frame) decodeGroupChecked(dst geom.PointCloud, data []byte, s *groupScratch, b *declimits.Budget) (geom.PointCloud, error) {
	if fr.gf.sharded || fr.gf.blockpack {
		if len(data) < 4 {
			return nil, fmt.Errorf("%w: group shorter than its CRC", ErrCorrupt)
		}
		want := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if crc32.Checksum(data, crcTable) != want {
			return nil, ErrGroupCRC
		}
	}
	return fr.decodeGroup(dst, data, s, b)
}

// groupScratch holds what decoding one group needs besides its output:
// the polyline lengths, the five integer streams (θ head deltas, θ tails, φ
// head deltas, φ tails, radials), the reference symbols, the inflated bytes
// of a DEFLATEd stream, every line's points in one array with the lines
// slicing it, and the consensus line. Pooled, one per goroutine decoding
// groups, so a steady-state decode allocates none of it.
type groupScratch struct {
	lens  []uint64
	ints  [5][]int64
	refs  []int
	raw   []byte
	pts   []polyline.Point
	lines []polyline.Line
	cons  polyline.Consensus
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// decodeGroup decodes one group payload and appends its points to dst.
func (fr frame) decodeGroup(dst geom.PointCloud, data []byte, s *groupScratch, b *declimits.Budget) (geom.PointCloud, error) {
	gf, q := fr.gf, fr.q
	h, data, err := fr.readGroupHeader(data)
	if err != nil {
		return nil, err
	}
	nLines, nTails := h.nLines, h.nTails

	// v5 groups carry a methods byte naming the entropy coder of each
	// angular stream; for earlier dialects it stays zero, which is exactly
	// intMethodLegacy for every stream.
	var methods byte
	if gf.ctx {
		if len(data) < 1 {
			return nil, fmt.Errorf("%w: missing stream methods byte", ErrCorrupt)
		}
		methods = data[0]
		data = data[1:]
		if methods>>6 != 0 {
			return nil, fmt.Errorf("%w: reserved stream method bits %#x", ErrCorrupt, methods)
		}
	}

	var streams [7][]byte
	for i := range streams {
		l, used, err := varint.Uint(data)
		if err != nil {
			return nil, fmt.Errorf("sparse: stream %d length: %w", i, err)
		}
		data = data[used:]
		if l > uint64(len(data)) {
			return nil, fmt.Errorf("%w: stream %d truncated", ErrCorrupt, i)
		}
		streams[i] = data[:l]
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in group", ErrCorrupt, len(data))
	}

	if gf.blockpack {
		s.lens, err = blockpack.UnpackUint64Sharded(streams[0], nLines, b)
	} else {
		s.lens, err = arith.AppendDecompressUints(s.lens[:0], streams[0], nLines, b)
	}
	if err != nil {
		return nil, fmt.Errorf("sparse: lengths: %w", err)
	}
	lens := s.lens
	total := 0
	for _, l := range lens {
		if l < 2 || l > sane {
			return nil, fmt.Errorf("%w: polyline length %d", ErrCorrupt, l)
		}
		total += int(l)
	}
	if total-nLines != nTails {
		return nil, fmt.Errorf("%w: tail count %d does not match lengths (%d)", ErrCorrupt, nTails, total-nLines)
	}
	if err := b.Points(int64(total)); err != nil {
		return nil, err
	}

	// legacyInts decodes stream i under the pre-v5 dialect rules: blockpack
	// (v4) packs every stream (heads plain, high-volume streams in the shard
	// framing); otherwise the azimuthal streams (1, 2) are DEFLATEd varints,
	// the φ heads (3) plain arithmetic, and the high-volume streams (4, 5)
	// arithmetic in the shard framing when the group is sharded (v3). The
	// plain paths decode into the scratch's slot for the stream.
	legacyInts := func(i, n int, highVolume bool) ([]int64, error) {
		if gf.blockpack {
			if highVolume {
				return blockpack.UnpackInt64Sharded(streams[i], n, b)
			}
			return blockpack.UnpackInt64(streams[i], n, b)
		}
		switch i {
		case 1, 2:
			// A zigzag varint is at most 10 bytes, so a valid head/tail
			// stream inflates to at most 10 bytes per element; the bound
			// stops DEFLATE bombs before they materialize.
			var err error
			if s.raw, err = inflateBytesBounded(s.raw[:0], streams[i], 10*int64(n), b); err != nil {
				return nil, err
			}
			return varint.AppendDecodeInts(s.ints[i-1][:0], s.raw, n)
		default:
			if highVolume && gf.sharded {
				return arith.DecompressIntsShardedLimited(streams[i], n, b)
			}
			return arith.AppendDecompressInts(s.ints[i-1][:0], streams[i], n, b)
		}
	}
	// decodeInts dispatches stream i on its v5 method marker; marker zero is
	// the legacy dialect, so pre-v5 groups (methods byte zero) take exactly
	// the old paths.
	decodeInts := func(i, n int, shift uint, highVolume bool) ([]int64, error) {
		switch (methods >> shift) & 3 {
		case intMethodLegacy:
			return legacyInts(i, n, highVolume)
		case intMethodArith:
			if highVolume && gf.sharded {
				return arith.DecompressIntsShardedLimited(streams[i], n, b)
			}
			return arith.AppendDecompressInts(s.ints[i-1][:0], streams[i], n, b)
		case intMethodCtx:
			return ctxmodel.DecodeIntsCtx(streams[i], n, b)
		default:
			return nil, fmt.Errorf("%w: unknown stream method", ErrCorrupt)
		}
	}

	// Whatever a stream decoded into — its slot or, in the other dialects,
	// a slice of the decoder's own — goes back into the slot for reuse.
	ints := &s.ints
	if ints[0], err = decodeInts(1, nLines, 0, false); err != nil {
		return nil, fmt.Errorf("sparse: theta heads: %w", err)
	}
	if ints[1], err = decodeInts(2, nTails, 2, true); err != nil {
		return nil, fmt.Errorf("sparse: theta tails: %w", err)
	}
	if ints[2], err = legacyInts(3, nLines, false); err != nil {
		return nil, fmt.Errorf("sparse: phi heads: %w", err)
	}
	if ints[3], err = decodeInts(4, nTails, 4, true); err != nil {
		return nil, fmt.Errorf("sparse: phi tails: %w", err)
	}
	if ints[4], err = legacyInts(5, total, true); err != nil {
		return nil, fmt.Errorf("sparse: radials: %w", err)
	}
	thetaTails, phiTails, radials := ints[1], ints[3], ints[4]
	if err := b.Nodes(int64(h.nRefs)); err != nil {
		return nil, err
	}
	if s.refs, err = decompressRefs(s.refs[:0], streams[6], h.nRefs); err != nil {
		return nil, err
	}

	// Rebuild θ and φ of every line (steps 2/6/7 inverted). One array
	// backs the points of all lines; every field of every point is set
	// here, so what the array held before does not matter.
	thetaHeads := undeltaInts(ints[0])
	phiHeads := undeltaInts(ints[2])
	s.pts = slices.Grow(s.pts[:0], total)[:total]
	s.lines = slices.Grow(s.lines[:0], nLines)[:nLines]
	lines := s.lines
	rest := s.pts
	tp := 0
	for i := range lines {
		n := int(lens[i])
		line := polyline.Line(rest[:n:n])
		rest = rest[n:]
		line[0] = polyline.Point{Theta: thetaHeads[i], Phi: phiHeads[i], Orig: -1}
		for k := 1; k < n; k++ {
			line[k] = polyline.Point{
				Theta: line[k-1].Theta + thetaTails[tp],
				Phi:   line[k-1].Phi + phiTails[tp],
				Orig:  -1,
			}
			// No encoder extends a polyline towards lower θ, and step 8's
			// consensus line is sorted only if none does.
			if line[k].Theta < line[k-1].Theta {
				return nil, fmt.Errorf("%w: polyline %d turns back in θ", ErrCorrupt, i)
			}
			tp++
		}
		lines[i] = line
	}

	// Replay the radial reference decisions to recover r (step 8
	// inverted).
	if _, err := codeRadial(&s.cons, lines, h.thPhi, h.thR, gf.plainDelta, true, radials, s.refs); err != nil {
		return nil, err
	}

	out := slices.Grow(dst, total)
	if gf.cartesian {
		cq := cartesianQuantizer{q: q}
		for _, p := range s.pts {
			out = append(out, cq.Cartesian(p))
		}
	} else {
		qz := NewQuantizer(q, h.rMax)
		for _, p := range s.pts {
			out = append(out, qz.Cartesian(p))
		}
	}
	return out, nil
}
