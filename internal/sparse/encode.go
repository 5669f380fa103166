package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/polyline"
	"dbgc/internal/radix"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// Options configures the sparse-point compressor.
type Options struct {
	// Q is the Cartesian per-dimension error bound q_xyz in meters.
	Q float64
	// Groups is the number of radial-distance groups (§3.5 "Point
	// Grouping"); the paper uses 3. Values below 1 mean 1.
	Groups int
	// UTheta and UPhi are the sensor's average angular steps in radians
	// (§3.3), used to steer polyline extraction.
	UTheta, UPhi float64
	// DisableRadialOpt replaces the radial distance optimized delta
	// encoding by plain per-line delta encoding (the paper's -Radial
	// ablation).
	DisableRadialOpt bool
	// CartesianMode organizes and codes polylines on scaled Cartesian
	// coordinates instead of spherical ones (the paper's -Conversion
	// ablation).
	CartesianMode bool
	// Shards and BlockPack asked for the retired sharded (v3) and
	// blockpacked (v4) dialects: Encode refuses Shards > 1 and BlockPack
	// with streamcodec.ErrRetiredDialect. Kept for bench/, which names
	// them; a change to the benchmark deletes them.
	Shards    int
	BlockPack bool
	// Context is the container v5 dialect: the angular streams (θ-head
	// deltas, θ tails, φ tails) each take the smallest of their own coder,
	// plain adaptive arithmetic coding and the context-modeled
	// magnitude-bucket coder, named in a methods byte a group, so the
	// dialect never enlarges a stream; and the polar lines go in the
	// forward-first order. The flag rides in the stream header, so decoders
	// need no out-of-band signal; off leaves the paper's streams
	// byte-identical to previous releases.
	Context bool
}

func (o Options) groups() int {
	g := o.Groups
	if g < 1 {
		g = 1
	}
	if o.CartesianMode {
		// Grouping only matters for the r-dependent angular scaling,
		// which Cartesian mode does not have.
		g = 1
	}
	return g
}

// thR is the radial distance threshold TH_r in metres, the paper's 2 m
// (§3.5 step 8). Every group header carries it, quantized, so a decoder
// needs no constant of its own.
func (Options) thR() float64 { return 2.0 }

// Encoded is the output of Encode.
type Encoded struct {
	// Data is the self-contained B_sparse bit sequence (with grouping
	// headers, Figure 8b).
	Data []byte
	// OutlierIdx lists the original-cloud indices of sparse points that
	// joined no polyline in any group; the caller routes them to the
	// outlier compressor (§3.6).
	OutlierIdx []int32
	// DecodedOrder maps decoded position j to the original-cloud index
	// it reconstructs (polyline points only).
	DecodedOrder []int32
	// NumLines counts polylines across all groups.
	NumLines int
	// Stage timings for the paper's Figure 13 breakdown: COR (coordinate
	// conversion and scaling), ORG (point organization), SPA (stream
	// compression).
	TimeConvert, TimeOrganize, TimeCompress time.Duration
}

// flag bits in the stream header.
const (
	flagCartesian  = 1 << 0
	flagPlainDelta = 1 << 1
	// flagSharded and flagBlockPack were the retired sharded (v3) and
	// blockpacked (v4) dialects; a stream that sets either is refused with
	// streamcodec.ErrRetiredDialect.
	flagSharded   = 1 << 2
	flagBlockPack = 1 << 3
	// flagContext is the context-modeled dialect (container v5): each group
	// carries a methods byte after its count header.
	flagContext = 1 << 4
	// flagForwardFirst is the forward-first order of a polar v5 stream: every
	// group's polylines are cut where they cross from one half of halves to
	// the other, and the pieces ahead of the sensor come before those behind
	// it, so a box ahead of the sensor decodes a prefix of every group.
	flagForwardFirst = 1 << 5
	knownFlags       = flagCartesian | flagPlainDelta | flagSharded | flagBlockPack | flagContext | flagForwardFirst
)

// forwardFirst tells whether the options write the forward-first order: the
// v5 dialect on polar coordinates.
func (o Options) forwardFirst() bool { return o.Context && !o.CartesianMode }

// streamTable is the stream table of a group payload: its seven streams in
// wire order, each a length-prefixed slot. class is what internal/streamcodec
// chooses the stream's coder by. A stream with marker >= 0 competes in the
// v5 dialect: it takes the smallest of its class's streamcodec Rivals,
// and the winner's two-bit marker goes at that bit of the group's methods
// byte. Encoder and decoder both walk this table, so it is the one place
// that says what a group payload holds.
var streamTable = [7]struct {
	name   string
	class  streamcodec.Class
	marker int
}{
	{"lengths", streamcodec.Lengths, -1},
	{"theta heads", streamcodec.ThetaHeads, 0}, // cross-line deltas of the heads
	{"theta tails", streamcodec.ThetaTails, 2},
	{"phi heads", streamcodec.PhiHeads, -1}, // cross-line deltas of the heads
	{"phi tails", streamcodec.Bulk, 4},
	{"radials", streamcodec.Bulk, -1},
	{"refs", streamcodec.Refs, -1},
}

// The first and the last stream of the table are not signed integers: the
// polyline lengths are unsigned, the reference symbols are codes over
// refAlphabet. The five between them are, in order, the scratches' ints.
const (
	streamLengths = 0
	streamRefs    = 6
	refAlphabet   = 4
)

// Encode compresses the sparse subset of pc given by idx. The cloud's
// origin must be the sensor position (§3.3).
func Encode(pc geom.PointCloud, idx []int32, opts Options) (Encoded, error) {
	if opts.Q <= 0 {
		return Encoded{}, fmt.Errorf("sparse: error bound must be positive, got %v", opts.Q)
	}
	if opts.Shards > 1 || opts.BlockPack {
		return Encoded{}, streamcodec.ErrRetiredDialect
	}
	flags := uint64(0)
	if opts.CartesianMode {
		flags |= flagCartesian
	}
	if opts.DisableRadialOpt {
		flags |= flagPlainDelta
	}
	if opts.Context {
		flags |= flagContext
	}
	if opts.forwardFirst() {
		flags |= flagForwardFirst
	}

	es := encodePool.Get().(*encodeScratch)
	defer encodePool.Put(es)
	sorted, rs, bounds := es.groupByRadius(pc, idx, opts)
	g := len(bounds) - 1
	// Groups differ severalfold in points and in polylines per point, so
	// they go to the workers one at a time. The first worker to arrive
	// encodes on the frame's scratch, the others on pooled ones of their own.
	results := make([]groupResult, g)
	var taken atomic.Bool
	par.Workers(g, func(next func() (int, bool)) {
		worker := es
		if taken.Swap(true) {
			worker = encodePool.Get().(*encodeScratch)
			defer encodePool.Put(worker)
		}
		for gi, ok := next(); ok; gi, ok = next() {
			results[gi] = worker.encodeGroup(pc, sorted[bounds[gi]:bounds[gi+1]], rs[bounds[gi]:bounds[gi+1]], opts, nil)
		}
	})

	var enc Encoded
	size, nOut, nOrder := 3*binary.MaxVarintLen64, 0, 0 // flags, q, group count
	for gi := range results {
		r := &results[gi]
		size += binary.MaxVarintLen64 + len(r.data) // length, payload
		nOut += len(r.outliers)
		nOrder += len(r.order)
	}
	out := make([]byte, 0, size)
	out = varint.AppendUint(out, flags)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(opts.Q))
	out = varint.AppendUint(out, uint64(g))
	enc.OutlierIdx = make([]int32, 0, nOut)
	enc.DecodedOrder = make([]int32, 0, nOrder)
	for gi := range results {
		r := &results[gi]
		out = appendStream(out, r.data)
		enc.OutlierIdx = append(enc.OutlierIdx, r.outliers...)
		enc.DecodedOrder = append(enc.DecodedOrder, r.order...)
		enc.NumLines += r.nLines
		enc.TimeConvert += r.times[0]
		enc.TimeOrganize += r.times[1]
		enc.TimeCompress += r.times[2]
	}
	enc.Data = out
	return enc, nil
}

// groupByRadius orders idx by radial distance and cuts it into the radial
// groups (§3.5): sort by r, then split at geometric boundaries so every
// group's r_max/r_min ratio — and with it the excess angular precision
// q/r_max imposes on the group's nearest points — is bounded. (Equal-count
// splitting leaves the far group spanning a 10x radial range whose near end
// pays several wasted bits per angle.) Norms are computed once and
// radix-sorted on their IEEE bits — non-negative floats order identically
// to their bit patterns, and the stable sort keeps equal radii in ascending
// index order. It returns the sorted indices and their norms (for the cuts
// and the per-group conversions), both in the scratch, and the g+1 cut
// positions.
func (es *encodeScratch) groupByRadius(pc geom.PointCloud, idx []int32, opts Options) (sorted []int32, rs []float64, bounds []int) {
	es.sorted = append(es.sorted[:0], idx...)
	sorted = es.sorted
	es.rbits = slices.Grow(es.rbits[:0], len(sorted))[:len(sorted)]
	for i, pi := range sorted {
		es.rbits[i] = math.Float64bits(pc[pi].Norm())
	}
	radix.Sort(es.rbits, sorted, &es.sort)
	es.rs = slices.Grow(es.rs[:0], len(sorted))[:len(sorted)]
	for i, b := range es.rbits {
		es.rs[i] = math.Float64frombits(b)
	}
	g := opts.groups()
	if len(sorted) < g {
		g = 1
	}
	return sorted, es.rs, groupBoundaries(es.rs, g)
}

// groupBoundaries returns g+1 cut positions into the ascending norm list,
// splitting the radial range [r_min, r_max] into g geometric intervals.
// Degenerate ranges fall back to equal-count chunks.
func groupBoundaries(rs []float64, g int) []int {
	bounds := make([]int, g+1)
	bounds[g] = len(rs)
	if len(rs) == 0 || g <= 1 {
		return bounds
	}
	rMin := rs[0]
	rMax := rs[len(rs)-1]
	if rMin <= 0 || rMax/rMin < 1.0001 {
		for gi := 1; gi < g; gi++ {
			bounds[gi] = len(rs) * gi / g
		}
		return bounds
	}
	ratio := math.Pow(rMax/rMin, 1/float64(g))
	cut := rMin
	pos := 0
	for gi := 1; gi < g; gi++ {
		cut *= ratio
		for pos < len(rs) && rs[pos] <= cut {
			pos++
		}
		bounds[gi] = pos
	}
	return bounds
}

// groupResult is what encoding one radial group yields: the group payload,
// the original-cloud indices of its outliers and of its polyline points in
// decode order, the polyline count, and the COR, ORG and SPA stage
// durations. The slices are the group's own, not the scratch's.
type groupResult struct {
	data            []byte
	outliers, order []int32
	nLines          int
	times           [3]time.Duration
}

// encodeScratch holds what encoding needs besides its output: the
// radius-sorted indices and norms of the frame, and per group the quantized
// points, the forward-first pieces behind the sensor while they wait for
// those ahead, the polyline lengths, the five integer streams (θ heads, θ
// tails, φ heads, φ tails, radials), the reference symbols, the group
// payload under assembly, the staging buffer of one stream and the
// consensus line.
// Pooled, one per goroutine encoding groups, so a steady-state encode
// allocates none of it.
type encodeScratch struct {
	sorted []int32
	rbits  []uint64
	rs     []float64
	sort   radix.Scratch

	qpts   []polyline.Point
	behind []polyline.Line
	lens   []uint64
	ints   [5][]int64
	refs   []byte
	data   []byte
	stage  []byte
	cons   polyline.Consensus
}

var encodePool = sync.Pool{New: func() any { return new(encodeScratch) }}

// encodeGroup runs steps 1-9 for one radial group. rs carries the group's
// precomputed norms in the same (ascending) order as group. A non-nil
// capture receives copies of the θ streams before they are entropy coded,
// and the polylines (collectStreams).
func (es *encodeScratch) encodeGroup(pc geom.PointCloud, group []int32, rs []float64, opts Options, capture *groupStreams) (res groupResult) {
	var rMax float64
	var cfg polyline.Config
	var thR int64
	var hv halves
	t0 := time.Now()

	es.qpts = slices.Grow(es.qpts[:0], len(group))[:len(group)]
	qpts := es.qpts
	if opts.CartesianMode {
		cq := cartesianQuantizer{q: opts.Q}
		var rMed float64
		for _, r := range rs {
			rMed += r
		}
		if len(group) > 0 {
			rMed /= float64(len(group))
		}
		for k, i := range group {
			tx, ty, tz := cq.Quantize(pc[i])
			qpts[k] = polyline.Point{Theta: tx, Phi: ty, R: tz, Orig: i}
		}
		// Thresholds: typical arc spacing mapped into quantized
		// Cartesian units.
		cfg = polyline.Config{
			UTheta:    math.Max(1, opts.UTheta*rMed/(2*opts.Q)),
			UPhi:      math.Max(1, opts.UPhi*rMed/(2*opts.Q)),
			Cartesian: cq.Cartesian,
		}
		thR = int64(math.Round(opts.thR() / (2 * opts.Q)))
	} else {
		if len(rs) > 0 {
			rMax = rs[len(rs)-1] // group norms ascend
		}
		qz := NewQuantizer(opts.Q, rMax)
		for k, i := range group {
			t, p, r := qz.Quantize(geom.ToSphericalR(pc[i], rs[k]))
			qpts[k] = polyline.Point{Theta: t, Phi: p, R: r, Orig: i}
		}
		cfg = polyline.Config{
			UTheta:    math.Max(1, opts.UTheta/(2*qz.QTheta)),
			UPhi:      math.Max(1, opts.UPhi/(2*qz.QPhi)),
			Cartesian: qz.Cartesian,
		}
		thR = int64(math.Round(opts.thR() / (2 * qz.QR)))
		hv = newHalves(qz)
	}
	if thR < 1 {
		thR = 1
	}
	thPhi := int64(math.Ceil(2 * cfg.UPhi))
	t1 := time.Now()

	lines, loose := polyline.Organize(qpts, cfg)
	if opts.forwardFirst() {
		lines = es.cutForwardFirst(lines, hv)
	}
	res.outliers = make([]int32, len(loose))
	for i, p := range loose {
		res.outliers[i] = p.Orig
	}
	res.nLines = len(lines)
	t2 := time.Now()

	// Stream assembly (steps 2-8), with the cross-line delta on the head
	// sequences (step 6/7) taken in place.
	nPts := 0
	for _, l := range lines {
		nPts += len(l)
	}
	nTails := nPts - len(lines)
	es.lens = slices.Grow(es.lens[:0], len(lines))
	for i, n := range [5]int{len(lines), nTails, len(lines), nTails, nPts} {
		es.ints[i] = slices.Grow(es.ints[i][:0], n)
	}
	lens, thetaHeads, thetaTails, phiHeads, phiTails := es.lens, es.ints[0], es.ints[1], es.ints[2], es.ints[3]
	res.order = make([]int32, 0, nPts)
	for _, l := range lines {
		lens = append(lens, uint64(len(l)))
		thetaHeads = append(thetaHeads, l.Head().Theta)
		phiHeads = append(phiHeads, l.Head().Phi)
		res.order = append(res.order, l[0].Orig)
		for k := 1; k < len(l); k++ {
			thetaTails = append(thetaTails, l[k].Theta-l[k-1].Theta)
			phiTails = append(phiTails, l[k].Phi-l[k-1].Phi)
			res.order = append(res.order, l[k].Orig)
		}
	}
	es.lens, es.ints[0], es.ints[1], es.ints[2], es.ints[3] = lens, deltaInts(thetaHeads), thetaTails, deltaInts(phiHeads), phiTails

	refs := es.encodeRadial(lines, thPhi, thR, opts.DisableRadialOpt)

	if capture != nil {
		capture.dThetaHeads = slices.Clone(es.ints[0])
		capture.thetaTails = slices.Clone(thetaTails)
		capture.phiTails = slices.Clone(phiTails)
		capture.lines, capture.thPhi, capture.thR = lines, thPhi, thR
	}

	data := es.data[:0]
	if !opts.CartesianMode {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(rMax))
	}
	data = varint.AppendUint(data, uint64(thPhi))
	data = varint.AppendUint(data, uint64(thR))
	data = varint.AppendUint(data, uint64(len(lines)))
	data = varint.AppendUint(data, uint64(len(thetaTails)))
	data = varint.AppendUint(data, uint64(len(refs)))

	// One walk over the stream table: streamcodec codes each stream into
	// the scratch's staging buffer by its class's own coder — in the v5
	// dialect the smallest of the class's rivals, the winner going into the
	// methods byte — and appendStream copies it into the payload, so the
	// buffer is free for the next.
	methodsAt := len(data)
	if opts.Context {
		data = append(data, 0)
	}
	s := es.stage
	for i, st := range streamTable {
		codec := st.class.Own()
		switch {
		case i == streamLengths:
			s = streamcodec.AppendUints(s[:0], codec, lens)
		case i == streamRefs:
			s = streamcodec.AppendCodes(s[:0], codec, refs, refAlphabet)
		case opts.Context && st.marker >= 0:
			var m, codings int
			s, m, codings = streamcodec.AppendSmallestInts(s[:0], st.class, es.ints[i-1])
			data[methodsAt] |= byte(m) << st.marker
			if capture != nil {
				capture.codings = append(capture.codings, codings)
			}
		default:
			s = streamcodec.AppendInts(s[:0], codec, es.ints[i-1])
		}
		data = appendStream(data, s)
	}
	es.stage, es.data = s, data
	res.data = bytes.Clone(data)
	t3 := time.Now()
	res.times = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return res
}

// cutForwardFirst cuts every line where its points cross from one half of hv
// to the other and returns the pieces ahead of the sensor, then those behind
// it, each half in the order of the lines it was cut from. A piece may be a
// single point. The pieces slice the lines' points, which do not move.
func (es *encodeScratch) cutForwardFirst(lines []polyline.Line, hv halves) []polyline.Line {
	ahead := make([]polyline.Line, 0, len(lines)+len(lines)/4)
	behind := es.behind[:0]
	for _, l := range lines {
		start, back := 0, hv.behind(l[0])
		for k := 1; k <= len(l); k++ {
			if k < len(l) && hv.behind(l[k]) == back {
				continue
			}
			if back {
				behind = append(behind, l[start:k:k])
			} else {
				ahead = append(ahead, l[start:k:k])
			}
			if k < len(l) {
				start, back = k, !back
			}
		}
	}
	es.behind = behind
	polyline.SortLines(ahead)
	polyline.SortLines(behind)
	return append(ahead, behind...)
}

// encodeRadial produces ∇L_r, the last of the scratch's integer streams,
// and L_ref (§3.5 step 8) in the scratch.
func (es *encodeScratch) encodeRadial(lines []polyline.Line, thPhi, thR int64, plainDelta bool) (refs []byte) {
	// Room for every point's radial was made with the other streams; a
	// tail yields at most one reference symbol.
	es.ints[4] = es.ints[4][:len(es.ints[1])+len(lines)]
	refs = slices.Grow(es.refs[:0], len(es.ints[1]))
	es.refs, _ = codeRadial(&es.cons, lines, thPhi, thR, plainDelta, false, es.ints[4], refs) // only decoding fails
	return es.refs
}

// deltaInts replaces vs[i] by vs[i] − vs[i-1] in place, keeping vs[0].
func deltaInts(vs []int64) []int64 {
	for i := len(vs) - 1; i > 0; i-- {
		vs[i] -= vs[i-1]
	}
	return vs
}

func undeltaInts(vs []int64) []int64 {
	for i := 1; i < len(vs); i++ {
		vs[i] += vs[i-1]
	}
	return vs
}

func appendStream(dst, stream []byte) []byte {
	dst = varint.AppendUint(dst, uint64(len(stream)))
	return append(dst, stream...)
}

// groupStreams holds one radial group's angular streams exactly as the
// encoder hands them to their coders, its polylines and thresholds exactly
// as step 8 gets them and, under the Context dialect, how many codings each
// competing stream took to choose its coder, in stream-table order.
type groupStreams struct {
	dThetaHeads []int64
	thetaTails  []int64
	phiTails    []int64
	lines       []polyline.Line
	thPhi, thR  int64
	codings     []int
}

// collectStreams runs the sparse pipeline on the subset of pc given by idx
// and returns every group's angular streams and polylines without emitting
// a stream: the real inputs TestDeflateNeverLoses holds deflate to,
// TestChooserOnScenes the chooser, and TestRadialMatchesReference step 8.
func collectStreams(pc geom.PointCloud, idx []int32, opts Options) []groupStreams {
	es := encodePool.Get().(*encodeScratch)
	defer encodePool.Put(es)
	sorted, rs, bounds := es.groupByRadius(pc, idx, opts)
	streams := make([]groupStreams, len(bounds)-1)
	for gi := range streams {
		lo, hi := bounds[gi], bounds[gi+1]
		es.encodeGroup(pc, sorted[lo:hi], rs[lo:hi], opts, &streams[gi])
	}
	return streams
}
