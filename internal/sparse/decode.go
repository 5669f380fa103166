package sparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/polyline"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed sparse stream.
var ErrCorrupt = errors.New("sparse: corrupt stream")

// DecodeOptions configures decoding. The zero value decodes without
// limits.
type DecodeOptions struct {
	// Budget, when non-nil, bounds decoded points, entropy symbols, and
	// memory. It is safe to share with concurrently decoding sections.
	Budget *declimits.Budget
}

// groupFlags carries the stream header's flags, which every group decode
// needs: the two ablations, the context dialect that lets the angular
// streams name their coders, and the forward-first order of the lines.
type groupFlags struct {
	cartesian    bool
	plainDelta   bool
	context      bool
	forwardFirst bool
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
func DecodeInto(dst geom.PointCloud, data []byte, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeRegionInto(dst, data, nil, opts)
}

// GroupCount returns the number of radial groups of an Encode stream, or
// how many of them can be read.
func GroupCount(data []byte) int {
	fr, _ := parseFrame(data)
	return len(fr.groups)
}

// PointCount returns the number of points the group headers of an Encode
// stream declare, or what of it can be read: an untrusted hint for sizing
// DecodeInto's destination.
func PointCount(data []byte) uint64 { return PointCountIn(data, nil) }

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
	if flags&^knownFlags != 0 {
		return fr, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags&^knownFlags)
	}
	if flags&(flagSharded|flagBlockPack) != 0 {
		return fr, fmt.Errorf("%w: sparse flags %#x", streamcodec.ErrRetiredDialect, flags)
	}
	if flags&flagForwardFirst != 0 && (flags&flagContext == 0 || flags&flagCartesian != 0) {
		return fr, fmt.Errorf("%w: forward-first order outside a polar v5 stream", ErrCorrupt)
	}
	if len(data) < 8 {
		return fr, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	fr.q = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if !(fr.q > 0) || math.IsInf(fr.q, 0) {
		return fr, fmt.Errorf("%w: invalid error bound %v", ErrCorrupt, fr.q)
	}
	fr.gf = groupFlags{
		cartesian:    flags&flagCartesian != 0,
		plainDelta:   flags&flagPlainDelta != 0,
		context:      flags&flagContext != 0,
		forwardFirst: flags&flagForwardFirst != 0,
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

// readGroupHeader reads the header of a group payload and returns what
// follows it.
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

// groupPoints returns the point count group's header declares (a line has
// a head and its tails), or zero if the header does not parse.
func (fr frame) groupPoints(group []byte) uint64 {
	h, _, err := fr.readGroupHeader(group)
	if err != nil {
		return 0
	}
	return uint64(h.nLines) + uint64(h.nTails)
}

// decodeGroups decodes groups, a subset of fr.groups in stream order, and
// appends to dst their points inside region (all of them when it is nil).
// Each group is an independently entropy-coded section and decodes into its
// own window of one buffer sized from the group headers, so the groups go
// through par.Workers: however many the stream declares, at most GOMAXPROCS
// workers and scratches are in use.
func (fr frame) decodeGroups(dst geom.PointCloud, groups [][]byte, region *geom.AABB, opts DecodeOptions) (geom.PointCloud, error) {
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
				pts[gi], errs[gi] = fr.decodeGroup(dst.Window(offs[gi], offs[gi+1]-offs[gi]), groups[gi], region, s, opts.Budget)
			}()
		}
	})
	for gi, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sparse: group %d: %w", gi, err)
		}
	}
	return dst.Join(offs, pts), nil
}

// groupScratch holds what decoding one group needs besides its output:
// the polyline lengths, the five integer streams (θ head deltas, θ tails, φ
// head deltas, φ tails, radials), the reference symbols, every line's
// points in one array with the lines slicing it, and the consensus line. Pooled, one per goroutine decoding
// groups, so a steady-state decode allocates none of it.
type groupScratch struct {
	lens  []uint64
	ints  [5][]int64
	refs  []byte
	pts   []polyline.Point
	lines []polyline.Line
	cons  polyline.Consensus
}

var groupPool = sync.Pool{New: func() any { return new(groupScratch) }}

// checkLengths holds a group's decoded polyline lengths to its header —
// every line has a head and at least one tail, or, in a forward-first
// stream, may be a single head — and together they have the total points
// the header's line and tail counts add up to — and charges those points to
// b.
func checkLengths(lens []uint64, total int, forwardFirst bool, b *declimits.Budget) error {
	shortest := uint64(2)
	if forwardFirst {
		shortest = 1
	}
	sum := 0
	for _, l := range lens {
		if l < shortest || l > sane {
			return fmt.Errorf("%w: polyline length %d", ErrCorrupt, l)
		}
		sum += int(l)
	}
	if sum != total {
		return fmt.Errorf("%w: tail count %d does not match lengths (%d)", ErrCorrupt, total-len(lens), sum-len(lens))
	}
	return b.Points(int64(total))
}

// decodeGroup decodes one group payload and appends to dst its points
// inside region (all of them when it is nil). In a forward-first stream a
// region wholly at x > 0 needs only the lines before the first one behind
// the sensor: the lengths, the heads and the references decode whole, the
// tails and the radials only as far as those lines reach where their coder
// can stop, and step 8 replays over those lines alone.
func (fr frame) decodeGroup(dst geom.PointCloud, data []byte, region *geom.AABB, s *groupScratch, b *declimits.Budget) (geom.PointCloud, error) {
	gf, q := fr.gf, fr.q
	h, data, err := fr.readGroupHeader(data)
	if err != nil {
		return nil, err
	}
	nLines, nTails := h.nLines, h.nTails

	// v5 groups carry a methods byte naming the entropy coder of each
	// angular stream.
	var methods byte
	if gf.context {
		if len(data) < 1 {
			return nil, fmt.Errorf("%w: missing stream methods byte", ErrCorrupt)
		}
		methods = data[0]
		data = data[1:]
		if methods>>6 != 0 {
			return nil, fmt.Errorf("%w: reserved stream method bits %#x", ErrCorrupt, methods)
		}
	}

	// The stream table read the other way: every stream decodes by its
	// class's own coder or the one its marker in the methods byte names.
	var streams [len(streamTable)][]byte
	var codecs [len(streamTable)]streamcodec.Codec
	for i, st := range streamTable {
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
		codecs[i] = st.class.Own()
		if gf.context && st.marker >= 0 {
			m := int(methods >> st.marker & 3)
			if m > streamcodec.MarkCtx {
				return nil, fmt.Errorf("%w: unknown stream method", ErrCorrupt)
			}
			codecs[i] = st.class.Marked(m)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in group", ErrCorrupt, len(data))
	}
	named := func(i int, err error) error {
		if err != nil {
			return fmt.Errorf("sparse: %s: %w", streamTable[i].name, err)
		}
		return nil
	}

	// First the streams that decode whole: the lengths, the heads (a line
	// has one) and the references.
	total := nLines + nTails
	if s.lens, err = streamcodec.DecodeUints(s.lens[:0], codecs[streamLengths], streams[streamLengths], nLines, b); err == nil {
		err = checkLengths(s.lens, total, gf.forwardFirst, b)
	}
	if err := named(streamLengths, err); err != nil {
		return nil, err
	}
	for _, i := range [2]int{1, 3} { // θ and φ heads
		s.ints[i-1], err = streamcodec.DecodeInts(s.ints[i-1][:0], codecs[i], streams[i], nLines, b)
		if err := named(i, err); err != nil {
			return nil, err
		}
	}
	s.refs, err = streamcodec.DecodeCodes(s.refs[:0], codecs[streamRefs], streams[streamRefs], h.nRefs, refAlphabet, b)
	if err := named(streamRefs, err); err != nil {
		return nil, err
	}
	lens, ints := s.lens, &s.ints
	thetaHeads := undeltaInts(ints[0])
	phiHeads := undeltaInts(ints[2])

	// The lines to rebuild: all of them, or those ahead of the sensor when
	// the box is.
	var hv halves
	if gf.forwardFirst {
		hv = newHalves(NewQuantizer(q, h.rMax))
	}
	nKeep, keep := nLines, total
	if gf.forwardFirst && region != nil && region.Min.X > 0 {
		nKeep, keep = 0, 0
		for nKeep < nLines && !hv.behind(polyline.Point{Theta: thetaHeads[nKeep], Phi: phiHeads[nKeep]}) {
			keep += int(lens[nKeep])
			nKeep++
		}
	}

	// Then the streams with a value a tail or a point, as far as those lines
	// reach.
	tails := keep - nKeep
	for _, st := range [...]struct{ i, n, keep int }{{2, nTails, tails}, {4, nTails, tails}, {5, total, keep}} {
		ints[st.i-1], err = streamcodec.DecodeIntsPrefix(ints[st.i-1][:0], codecs[st.i], streams[st.i], st.n, st.keep, b)
		if err := named(st.i, err); err != nil {
			return nil, err
		}
	}
	thetaTails, phiTails, radials := ints[1], ints[3], ints[4]

	// Rebuild θ and φ of the lines (steps 2/6/7 inverted). One array backs
	// their points; every field of every point is set here, so what the
	// array held before does not matter.
	s.pts = slices.Grow(s.pts[:0], keep)[:keep]
	s.lines = slices.Grow(s.lines[:0], nKeep)[:nKeep]
	lines := s.lines
	rest := s.pts
	tp := 0
	seenBehind := false
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
		if gf.forwardFirst {
			// The promise a region decode trusts: every line lies in one
			// half, and no line ahead of the sensor follows one behind it.
			back, mixed := hv.side(line)
			if mixed {
				return nil, fmt.Errorf("%w: polyline %d crosses x = 0", ErrCorrupt, i)
			}
			if seenBehind && !back {
				return nil, fmt.Errorf("%w: polyline %d ahead of the sensor follows one behind it", ErrCorrupt, i)
			}
			seenBehind = back
		}
		lines[i] = line
	}

	// Replay the radial reference decisions to recover r (step 8
	// inverted). The lines take every symbol of L_ref, unless they are a
	// prefix of the group's.
	used, err := codeRadial(&s.cons, lines, h.thPhi, h.thR, gf.plainDelta, true, radials, s.refs)
	if err != nil {
		return nil, err
	}
	if nKeep == nLines && len(used) != len(s.refs) {
		return nil, fmt.Errorf("%w: %d unused L_ref symbols", ErrCorrupt, len(s.refs)-len(used))
	}

	// The one pass out of the scratch: a point the box drops is never
	// written, and in a polar group it is converted only if its quantized
	// radius and azimuth leave it a chance of being inside.
	out := slices.Grow(dst, keep)
	switch {
	case gf.cartesian:
		cq := cartesianQuantizer{q: q}
		for _, p := range s.pts {
			if c := cq.Cartesian(p); region == nil || region.Contains(c) {
				out = append(out, c)
			}
		}
	case region == nil:
		conv := converter{qz: NewQuantizer(q, h.rMax)}
		for _, p := range s.pts {
			out = append(out, conv.cartesian(p))
		}
	default:
		conv := converter{qz: NewQuantizer(q, h.rMax)}
		w := newWindow(*region, conv.qz)
		for _, p := range s.pts {
			if !w.mayHold(p) {
				continue
			}
			if c := conv.cartesian(p); region.Contains(c) {
				out = append(out, c)
			}
		}
	}
	return out, nil
}
