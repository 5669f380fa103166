package sparse

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/par"
	"dbgc/internal/polyline"
	"dbgc/internal/radix"
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
	// THrMeters is the radial distance threshold TH_r; zero means the
	// paper's 2 m.
	THrMeters float64
	// Shards splits each group's high-volume entropy streams (φ tails and
	// radials) into this many independently-coded shards (container v3)
	// and adds a per-group CRC so damaged groups can be salvaged
	// individually. Values <= 1 keep the legacy streams, byte-identical to
	// previous releases. The flag rides in the stream header, so decoders
	// need no out-of-band signal.
	Shards int
	// BlockPack codes the integer streams (polyline lengths, θ/φ heads and
	// tails, radials) with the blockpack codec instead of varint+DEFLATE
	// and the adaptive arithmetic coder (container v4). The high-volume
	// streams keep the shard framing, so sharded decode composes;
	// groups carry CRCs like the sharded dialect. The flag rides in the
	// stream header. Off leaves every legacy dialect byte-identical.
	BlockPack bool
	// Context lets the angular streams (θ-head deltas, θ tails, φ tails)
	// compete against two extra entropy coders — plain adaptive arithmetic
	// and the context-modeled magnitude-bucket coder of internal/ctxmodel —
	// per group and per stream (container v5). Each group carries a methods
	// byte recording the winner; a stream whose context coding loses keeps
	// its legacy bytes, so the dialect never enlarges a stream by more than
	// the one methods byte per group. The flag rides in the stream header.
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

func (o Options) thR() float64 {
	if o.THrMeters > 0 {
		return o.THrMeters
	}
	return 2.0
}

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
	// flagSharded marks the container v3 dialect: each group payload is
	// prefixed by its CRC-32C, and the φ-tail and radial streams use the
	// sharded entropy framing of internal/arith.
	flagSharded = 1 << 2
	// flagBlockPack marks the container v4 dialect: the integer streams are
	// blockpacked (the high-volume ones inside the shard framing), and each
	// group payload is CRC-prefixed like the sharded dialect.
	flagBlockPack = 1 << 3
	// flagContext marks the container v5 dialect: each group carries a
	// methods byte (after the count header) naming the per-stream entropy
	// coder of the θ-head-delta, θ-tail, and φ-tail streams.
	flagContext = 1 << 4
)

// Per-stream entropy-coder markers in the v5 methods byte, two bits each:
// θ-head deltas at bit 0, θ tails at bit 2, φ tails at bit 4.
const (
	intMethodLegacy = 0 // the active dialect's coding (v1/v3/v4)
	intMethodArith  = 1 // plain adaptive arithmetic (sharded if the group is)
	intMethodCtx    = 2 // ctxmodel magnitude-bucket contexts
)

// crcTable is the Castagnoli polynomial, matching the container CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode compresses the sparse subset of pc given by idx. The cloud's
// origin must be the sensor position (§3.3).
func Encode(pc geom.PointCloud, idx []int32, opts Options) (Encoded, error) {
	if opts.Q <= 0 {
		return Encoded{}, fmt.Errorf("sparse: error bound must be positive, got %v", opts.Q)
	}
	flags := uint64(0)
	if opts.CartesianMode {
		flags |= flagCartesian
	}
	if opts.DisableRadialOpt {
		flags |= flagPlainDelta
	}
	if opts.Shards > 1 {
		flags |= flagSharded
	}
	if opts.BlockPack {
		flags |= flagBlockPack
	}
	if opts.Context {
		flags |= flagContext
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
		size += binary.MaxVarintLen64 + 4 + len(r.data) // length, CRC, payload
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
		if opts.Shards > 1 || opts.BlockPack {
			// v3/v4 dialect: the group length covers a leading CRC-32C so a
			// damaged group can be detected — and skipped — on its own.
			out = varint.AppendUint(out, uint64(len(r.data))+4)
			out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(r.data, crcTable))
		} else {
			out = varint.AppendUint(out, uint64(len(r.data)))
		}
		out = append(out, r.data...)
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
// points, the polyline lengths, the five integer streams (θ heads, θ tails,
// φ heads, φ tails, radials), the reference symbols, the group payload
// under assembly, the staging buffer of one stream, the consensus line and
// the two DEFLATE writers with their outputs. Pooled, one per goroutine
// encoding groups, so a steady-state encode allocates none of it.
type encodeScratch struct {
	sorted []int32
	rbits  []uint64
	rs     []float64
	sort   radix.Scratch

	qpts  []polyline.Point
	lens  []uint64
	ints  [5][]int64
	refs  []int
	data  []byte
	stage []byte
	cons  polyline.Consensus

	huffman, lz       *flate.Writer
	huffmanOut, lzOut bytes.Buffer
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
	}
	if thR < 1 {
		thR = 1
	}
	thPhi := int64(math.Ceil(2 * cfg.UPhi))
	t1 := time.Now()

	lines, loose := polyline.Organize(qpts, cfg)
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
	dThetaHeads := deltaInts(thetaHeads)
	dPhiHeads := deltaInts(phiHeads)
	es.lens, es.ints[0], es.ints[1], es.ints[2], es.ints[3] = lens, thetaHeads, thetaTails, phiHeads, phiTails

	radials, refs := es.encodeRadial(lines, thPhi, thR, opts.DisableRadialOpt)

	if capture != nil {
		capture.dThetaHeads = slices.Clone(dThetaHeads)
		capture.thetaTails = slices.Clone(thetaTails)
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

	// Stage each stream in the scratch's buffer; appendStream copies into
	// the payload, so the buffer is safe to reuse immediately. deflate
	// returns one of the scratch's two DEFLATE outputs, good until it is
	// called again.
	s := es.stage
	if opts.Context {
		// v5 dialect: the three angular streams each pick the smallest of
		// their legacy coding, plain adaptive arithmetic, and the
		// context-modeled coder; the winners land in the methods byte.
		methodsAt := len(data)
		data = append(data, 0)
		if opts.BlockPack {
			s = blockpack.PackUint64Sharded(s[:0], lens, opts.Shards)
		} else {
			s = arith.AppendCompressUints(s[:0], lens)
		}
		data = appendStream(data, s)

		var legacy []byte
		if opts.BlockPack {
			legacy = blockpack.PackInt64(nil, dThetaHeads)
		} else {
			s = varint.AppendInts(s[:0], dThetaHeads)
			legacy = es.deflate(s)
		}
		data = chooseIntStream(data, methodsAt, 0, legacy, dThetaHeads, 1)

		if opts.BlockPack {
			legacy = blockpack.PackInt64Sharded(nil, thetaTails, opts.Shards)
		} else {
			s = varint.AppendInts(s[:0], thetaTails)
			legacy = es.deflate(s)
		}
		data = chooseIntStream(data, methodsAt, 2, legacy, thetaTails, opts.Shards)

		if opts.BlockPack {
			s = blockpack.PackInt64(s[:0], dPhiHeads)
		} else {
			s = arith.AppendCompressInts(s[:0], dPhiHeads)
		}
		data = appendStream(data, s)

		switch {
		case opts.BlockPack:
			legacy = blockpack.PackInt64Sharded(nil, phiTails, opts.Shards)
		case opts.Shards > 1:
			legacy = arith.AppendCompressIntsSharded(nil, phiTails, opts.Shards)
		default:
			legacy = arith.AppendCompressInts(nil, phiTails)
		}
		data = chooseIntStream(data, methodsAt, 4, legacy, phiTails, opts.Shards)

		switch {
		case opts.BlockPack:
			s = blockpack.PackInt64Sharded(s[:0], radials, opts.Shards)
		case opts.Shards > 1:
			s = arith.AppendCompressIntsSharded(s[:0], radials, opts.Shards)
		default:
			s = arith.AppendCompressInts(s[:0], radials)
		}
		data = appendStream(data, s)
	} else if opts.BlockPack {
		// v4 dialect: every integer stream blockpacks. The high-volume
		// streams (lengths, tails, radials) keep the shard framing so
		// sharded decode composes; the tiny head streams pack
		// plain. Only the 4-symbol reference stream stays on the adaptive
		// arithmetic coder, where sub-bit symbols beat any bit packing.
		s = blockpack.PackUint64Sharded(s[:0], lens, opts.Shards)
		data = appendStream(data, s)
		s = blockpack.PackInt64(s[:0], dThetaHeads)
		data = appendStream(data, s)
		s = blockpack.PackInt64Sharded(s[:0], thetaTails, opts.Shards)
		data = appendStream(data, s)
		s = blockpack.PackInt64(s[:0], dPhiHeads)
		data = appendStream(data, s)
		s = blockpack.PackInt64Sharded(s[:0], phiTails, opts.Shards)
		data = appendStream(data, s)
		s = blockpack.PackInt64Sharded(s[:0], radials, opts.Shards)
		data = appendStream(data, s)
	} else {
		s = arith.AppendCompressUints(s[:0], lens)
		data = appendStream(data, s)
		s = varint.AppendInts(s[:0], dThetaHeads)
		data = appendStream(data, es.deflate(s))
		s = varint.AppendInts(s[:0], thetaTails)
		data = appendStream(data, es.deflate(s))
		s = arith.AppendCompressInts(s[:0], dPhiHeads)
		data = appendStream(data, s)
		// φ tails and radials are the group's two high-volume streams; in the
		// sharded dialect they split into independently-coded shards. The small
		// head/length/ref streams stay single-coder: sharding them would cost
		// model restarts without useful parallelism.
		if opts.Shards > 1 {
			s = arith.AppendCompressIntsSharded(s[:0], phiTails, opts.Shards)
			data = appendStream(data, s)
			s = arith.AppendCompressIntsSharded(s[:0], radials, opts.Shards)
			data = appendStream(data, s)
		} else {
			s = arith.AppendCompressInts(s[:0], phiTails)
			data = appendStream(data, s)
			s = arith.AppendCompressInts(s[:0], radials)
			data = appendStream(data, s)
		}
	}
	s = appendCompressRefs(s[:0], refs)
	data = appendStream(data, s)
	es.stage, es.data = s, data
	res.data = bytes.Clone(data)
	t3 := time.Now()
	res.times = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return res
}

// encodeRadial produces ∇L_r and L_ref (§3.5 step 8) in the scratch.
func (es *encodeScratch) encodeRadial(lines []polyline.Line, thPhi, thR int64, plainDelta bool) (radials []int64, refs []int) {
	// Room for every point's radial was made with the other streams; a
	// tail yields at most one reference symbol.
	radials = es.ints[4][:len(es.ints[1])+len(lines)]
	refs = slices.Grow(es.refs[:0], len(es.ints[1]))
	refs, _ = codeRadial(&es.cons, lines, thPhi, thR, plainDelta, false, radials, refs) // only decoding fails
	es.ints[4], es.refs = radials, refs
	return radials, refs
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

func appendCompressRefs(dst []byte, refs []int) []byte {
	e := arith.GetEncoder()
	m := arith.GetModel(4)
	for _, s := range refs {
		e.Encode(m, s)
	}
	dst = e.AppendFinish(dst)
	arith.PutModel(m)
	arith.PutEncoder(e)
	return dst
}

// decompressRefs appends the n symbols of L_ref to dst.
func decompressRefs(dst []int, data []byte, n int) ([]int, error) {
	d := arith.GetDecoder(data)
	m := arith.GetModel(4)
	defer func() {
		arith.PutModel(m)
		arith.PutDecoder(d)
	}()
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		s, err := d.Decode(m)
		if err != nil {
			return nil, fmt.Errorf("sparse: ref symbol %d/%d: %w", i, n, err)
		}
		dst = append(dst, s)
	}
	return dst, nil
}

func appendStream(dst, stream []byte) []byte {
	dst = varint.AppendUint(dst, uint64(len(stream)))
	return append(dst, stream...)
}

// chooseIntStream appends the smallest coding of vs among the active
// dialect's legacy bytes, plain adaptive arithmetic, and the context-modeled
// magnitude-bucket coder, recording the winner's marker at bit position
// shift of the methods byte at dst[methodsAt]. Ties go to the lowest marker,
// so a stream the new coders cannot beat keeps its exact legacy bytes.
func chooseIntStream(dst []byte, methodsAt int, shift uint, legacy []byte, vs []int64, shards int) []byte {
	best, method := legacy, byte(intMethodLegacy)
	var a []byte
	if shards > 1 {
		a = arith.AppendCompressIntsSharded(nil, vs, shards)
	} else {
		a = arith.AppendCompressInts(nil, vs)
	}
	if len(a) < len(best) {
		best, method = a, intMethodArith
	}
	if c := ctxmodel.AppendIntsCtx(nil, vs, shards); len(c) < len(best) {
		best, method = c, intMethodCtx
	}
	dst[methodsAt] |= method << shift
	return appendStream(dst, best)
}

// lzLevel is the effort of deflate's LZ77 candidate: compress/flate's level
// 5, hash chains at most 32 deep. On the θ streams — three or four distinct
// byte values — level 9's 4096-deep chains cost ten times the time for about
// 1% fewer bytes, and levels 1-4 find too few of the matches that pay.
const lzLevel = 5

// deflate codes data as a raw DEFLATE stream (§3.5 step 6, "Deflate on θ")
// and returns the smaller of two encodings of it, good until the next call:
// Huffman coding alone, and LZ77 matching at lzLevel. Ties go to Huffman
// only. A short-period or constant stream is all matches and shrinks a
// hundredfold under LZ77; the usual θ stream is near-memoryless noise on a
// tiny alphabet, where a match costs more bits than the literals it
// replaces and Huffman coding alone is smaller. Either is what any inflater
// reads; nothing in the format says which was chosen.
func (es *encodeScratch) deflate(data []byte) []byte {
	if es.huffman == nil {
		es.huffman, es.lz = newDeflater(flate.HuffmanOnly), newDeflater(lzLevel)
	}
	run := func(w *flate.Writer, out *bytes.Buffer) []byte {
		out.Reset()
		w.Reset(out)
		if _, err := w.Write(data); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		return out.Bytes()
	}
	best := run(es.huffman, &es.huffmanOut)
	if lz := run(es.lz, &es.lzOut); len(lz) < len(best) {
		best = lz
	}
	return best
}

func newDeflater(level int) *flate.Writer {
	w, err := flate.NewWriter(nil, level)
	if err != nil {
		panic(err) // only fails for an invalid level
	}
	return w
}

// groupStreams holds one radial group's θ streams exactly as the encoder
// hands them to deflate, and its polylines and thresholds exactly as step 8
// gets them.
type groupStreams struct {
	dThetaHeads []int64
	thetaTails  []int64
	lines       []polyline.Line
	thPhi, thR  int64
}

// collectStreams runs the sparse pipeline on the subset of pc given by idx
// and returns every group's θ streams and polylines without emitting a
// stream: the real inputs TestDeflateNeverLoses holds deflate to, and
// TestRadialMatchesReference step 8.
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

// inflater is a DEFLATE reader with its source, recycled through
// inflatePool: flate.NewReader allocates the 32 KB window and the Huffman
// tables that Reset keeps.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
}

var inflatePool = sync.Pool{New: func() any { return new(inflater) }}

// inflateBytesBounded inflates data into dst's storage, refusing to inflate
// past maxLen bytes (a DEFLATE stream can expand ~1000x, so the inflated
// size must be bounded by what the caller can legitimately consume) and
// charging the inflated bytes against b.
func inflateBytesBounded(dst, data []byte, maxLen int64, b *declimits.Budget) ([]byte, error) {
	if err := b.Mem(maxLen); err != nil {
		return nil, err
	}
	z := inflatePool.Get().(*inflater)
	defer inflatePool.Put(z)
	z.src.Reset(data)
	if z.r == nil {
		z.r = flate.NewReader(&z.src)
	} else if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("sparse: inflate: %w", err)
	}
	out := bytes.NewBuffer(dst[:0])
	if _, err := out.ReadFrom(io.LimitReader(z.r, maxLen+1)); err != nil {
		return nil, fmt.Errorf("sparse: inflate: %w", err)
	}
	if int64(out.Len()) > maxLen {
		return nil, fmt.Errorf("%w: inflated stream exceeds %d bytes", ErrCorrupt, maxLen)
	}
	return out.Bytes(), nil
}
