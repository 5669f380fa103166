// Package core assembles the DBGC compression pipeline (Figure 2): density-
// based clustering splits the cloud into dense and sparse points, dense
// points go to the octree coder, sparse points are organized into polylines
// and coded in spherical coordinates, leftover points go to the optimized
// outlier coder, and the three bit sequences are framed into the final
// layout of Figure 8.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"
	"time"

	"dbgc/internal/cluster"
	"dbgc/internal/geom"
	"dbgc/internal/octree"
	"dbgc/internal/outlier"
	"dbgc/internal/par"
	"dbgc/internal/sparse"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed DBGC stream.
var ErrCorrupt = errors.New("core: corrupt stream")

// ErrRetiredDialect reports a frame in a retired dialect — container v3
// (sharded) or v4 (blockpacked), or a v5 frame or stream that declares
// either — or options that ask for one.
var ErrRetiredDialect = streamcodec.ErrRetiredDialect

// OutlierMode selects how points off all polylines are compressed (§4.3
// "Optimized Outlier Compression" comparison, Table 2).
type OutlierMode int

const (
	// OutlierQuadtree is DBGC's optimized scheme: 2D quadtree + Δz.
	OutlierQuadtree OutlierMode = iota
	// OutlierOctree compresses outliers with the baseline octree.
	OutlierOctree
	// OutlierNone stores outliers raw (three float32 per point).
	OutlierNone
)

// Options configures the DBGC compressor. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// Q is the per-dimension error bound q_xyz in meters (§2.1). The
	// paper's running setting is 0.02 (2 cm).
	Q float64
	// K scales the clustering radius ε = K·Q; the paper fixes 10.
	K int
	// MinPts overrides the clustering core threshold; 0 means the
	// surface-bound default ⌈πK²/4⌉ (see cluster.DefaultMinPts).
	MinPts int
	// Groups is the sparse-point group count (§3.5). The paper uses 3
	// equal-count groups; this implementation splits at geometric radial
	// boundaries, for which 6 groups measure best (see DESIGN.md).
	Groups int
	// UTheta, UPhi are the sensor's average angular steps in radians
	// (§3.3). Zero values default to HDL-64E geometry.
	UTheta, UPhi float64
	// ExactClustering selects the exact cell-based clustering instead of
	// the approximate O(n) method that DBGC integrates by default
	// (§4.3).
	ExactClustering bool
	// DisableRadialOpt is the -Radial ablation.
	DisableRadialOpt bool
	// CartesianPolylines is the -Conversion ablation.
	CartesianPolylines bool
	// OutlierMode selects the outlier compressor.
	OutlierMode OutlierMode
	// ForceOctreeFraction, when in [0, 1], bypasses clustering and sends
	// exactly that fraction of points (nearest to the sensor first) to
	// the octree — the manual split of Figure 10. Negative means "use
	// clustering".
	ForceOctreeFraction float64
	// Shards and BlockPack asked for the retired sharded (v3) and
	// blockpacked (v4) containers, which no workload wrote and which were
	// larger than the default frame; they are no longer read or written
	// (DESIGN.md §9, "Retired dialects"). Compress refuses Shards > 1 and
	// BlockPack with ErrRetiredDialect. Kept for bench/, which names them;
	// a change to the benchmark deletes them.
	Shards    int
	BlockPack bool
	// ContextModel emits the container v5 dialect, in which each sparse
	// angular stream (θ-head deltas, θ tails, φ tails) is coded once, by
	// whichever of its §3.5 coder, plain adaptive arithmetic coding and the
	// magnitude-bucket context coder of internal/ctxmodel
	// internal/streamcodec prices smallest (DESIGN.md §15), and says which in
	// a methods byte a radial group. DefaultOptions sets it: 3-4% off a frame
	// for a tenth more decode time, the θ tails being arithmetic-decoded
	// where §3.5 inflates them. False is the spelling of the paper's own
	// coders — Deflate on θ, arithmetic coding on φ, r and the lengths — and
	// the v2 container, byte-identical to previous releases. The octree
	// occupancy stream keeps its order-0 coder either way, behind a method
	// marker that says so; a frame whose marker names the retired
	// context-modeled occupancy coder is refused with
	// octree.ErrContextOccupancy.
	ContextModel bool
}

// DefaultOptions returns the configuration this implementation measures
// best for error bound q: the paper's pipeline and parameters (§4.1) with
// six geometric radial groups and the per-stream coder choice of
// ContextModel. Setting ContextModel to false gives the paper's §3.5 coders.
func DefaultOptions(q float64) Options {
	return Options{
		Q:                   q,
		K:                   10,
		Groups:              6,
		UTheta:              2 * math.Pi / 2000,
		UPhi:                (26.8 / 64) * math.Pi / 180,
		ForceOctreeFraction: -1,
		ContextModel:        true,
	}
}

// Stats reports what the compressor did. None of it is needed for
// decompression.
type Stats struct {
	NumPoints   int
	NumDense    int
	NumSparse   int // sparse points on polylines
	NumOutliers int
	NumLines    int

	BytesTotal   int
	BytesDense   int
	BytesSparse  int
	BytesOutlier int

	// Mapping[j] is the original index of decoded point j — the paper's
	// one-to-one mapping M, used for error verification.
	Mapping []int32

	// Stage durations (Figure 13): clustering (DEN), octree coding (OCT),
	// coordinate conversion (COR), point organization (ORG), sparse
	// stream compression (SPA), outlier compression (OUT). With more than
	// one processor the octree leg runs beside the sparse one and the
	// radial groups beside each other, so OCT overlaps COR/ORG/SPA and
	// those three are sums over groups, not wall-clock spans.
	DEN, OCT, COR, ORG, SPA, OUT time.Duration
	// ENT is the entropy-coding share of OCT (the octree's arithmetic
	// passes), split out so multi-core sweeps can attribute serialization
	// to entropy coding rather than tree construction.
	ENT time.Duration
}

// CompressionRatio returns RawSize / |B| for the compressed frame.
func (s Stats) CompressionRatio() float64 {
	if s.BytesTotal == 0 {
		return 0
	}
	return float64(s.NumPoints*12) / float64(s.BytesTotal)
}

const (
	magic = "DBGC"
	// version2 frames each section as "length uvarint | crc fixed32 LE |
	// payload", the CRC32-C making damage attributable to one section so
	// the others stay recoverable (DecompressPartial). Version 1, the same
	// framing without the CRC, is no longer read. Compress writes it
	// without ContextModel.
	version2 = 2
	// version3 (sharded entropy streams) and version4 (blockpacked integer
	// streams) are retired: parseContainer refuses them with
	// ErrRetiredDialect.
	version3 = 3
	version4 = 4
	// version5 keeps the envelope but follows the version byte with a
	// dialect byte, whose one live bit is dialectContext. Compress writes it
	// under ContextModel, the default.
	version5 = 5
)

// Dialect bits of the v5 container's dialect byte. The sharded and
// blockpack bits are retired: parseContainer refuses a frame that sets
// either with ErrRetiredDialect.
const (
	dialectSharded   = 1 << 0 // retired: v3 sharded entropy framing
	dialectBlockPack = 1 << 1 // retired: v4 blockpacked integer streams
	dialectContext   = 1 << 2 // coder-choice angular streams, occupancy method marker
)

// castagnoli is the CRC32-C table shared by section framing and checks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder compresses frames while recycling the per-frame working memory —
// the dense/sparse index sets, the gathered dense and outlier sub-clouds,
// and the mapping buffer — across calls. A zero Encoder with Opts set is
// ready; NewEncoder is the conventional constructor. An Encoder is not safe
// for concurrent use, but distinct Encoders are independent.
type Encoder struct {
	// Opts configures every Compress call on this encoder.
	Opts Options

	denseIdx   []int32
	sparseIdx  []int32
	densePts   geom.PointCloud
	outlierPts geom.PointCloud
	mapping    []int32
	stats      Stats
}

// NewEncoder returns an Encoder that compresses with opts.
func NewEncoder(opts Options) *Encoder { return &Encoder{Opts: opts} }

// Compress encodes pc under the encoder's options. The returned Stats —
// including Stats.Mapping — live in the encoder's reusable scratch and are
// only valid until the next Compress call on this encoder; copy what must
// outlive the frame. The compressed frame itself is freshly allocated and
// caller-owned.
func (e *Encoder) Compress(pc geom.PointCloud) ([]byte, *Stats, error) {
	return e.compressOnce(pc, e.Opts, nil)
}

// compressOnce compresses pc under opts as they are. A non-nil clock makes
// it a replay (ReplayStages): the octree leg runs after the sparse one
// instead of beside it, and every stage's duration goes on the clock.
func (e *Encoder) compressOnce(pc geom.PointCloud, opts Options, clock StageTimes) ([]byte, *Stats, error) {
	if opts.Q <= 0 {
		return nil, nil, fmt.Errorf("core: error bound must be positive, got %v", opts.Q)
	}
	if opts.Shards > 1 || opts.BlockPack {
		return nil, nil, fmt.Errorf("core: Options.Shards %d, BlockPack %v: %w", opts.Shards, opts.BlockPack, ErrRetiredDialect)
	}
	if opts.UTheta <= 0 {
		opts.UTheta = 2 * math.Pi / 2000
	}
	if opts.UPhi <= 0 {
		opts.UPhi = (26.8 / 64) * math.Pi / 180
	}
	// Real capture files occasionally carry garbage records; a NaN or
	// infinite coordinate would silently poison quantization, a finite one
	// whose norm overflows encodes a range the decoder rejects, and one
	// beyond maxCoordinate costs it and its neighbours the error bound, so
	// refuse the frame up front with a pointed error.
	limit := maxCoordinate(opts.Q)
	bad, bounds := scanPoints(pc, limit)
	if bad >= 0 {
		if !finiteNorm(pc[bad]) {
			return nil, nil, fmt.Errorf("core: point %d has a non-finite coordinate or norm: %v", bad, pc[bad])
		}
		return nil, nil, fmt.Errorf("core: point %d has a coordinate beyond q·2^48 = %g m, the range the error bound holds over: %v", bad, limit, pc[bad])
	}
	e.stats = Stats{NumPoints: len(pc)}
	stats := &e.stats

	// Stage 1: density-based clustering (DEN).
	t0 := time.Now()
	denseIdx, sparseIdx := e.splitPoints(pc, bounds, opts)
	stats.DEN = time.Since(t0)
	clock.set("cluster.split", stats.DEN)
	stats.NumDense = len(denseIdx)

	// Stage 2: octree compression of dense points (OCT), beside stages
	// 3-5: conversion, organization, sparse coordinate compression
	// (COR/ORG/SPA). The sparse leg is the longer one and splits further
	// into its radial groups, so it goes first: largest first is the
	// better order, though whoever ends up waiting joins those groups
	// either way.
	e.densePts = gather(e.densePts, pc, denseIdx)
	densePts := e.densePts
	var denseEnc octree.Encoded
	var sparseEnc sparse.Encoded
	var denseErr, err error
	sparseLeg := func() {
		t := time.Now()
		sparseEnc, err = sparse.Encode(pc, sparseIdx, sparse.Options{
			Q:                opts.Q,
			Groups:           opts.Groups,
			UTheta:           opts.UTheta,
			UPhi:             opts.UPhi,
			DisableRadialOpt: opts.DisableRadialOpt,
			CartesianMode:    opts.CartesianPolylines,
			Context:          opts.ContextModel,
		})
		clock.set("sparse.encode", time.Since(t))
		clock.set("polyline.organize", sparseEnc.TimeConvert+sparseEnc.TimeOrganize)
	}
	denseLeg := func() {
		t := time.Now()
		denseEnc, denseErr = octree.EncodeWith(densePts, opts.Q, octree.EncodeOptions{Context: opts.ContextModel})
		stats.OCT = time.Since(t)
		stats.ENT = denseEnc.EntropyTime
		clock.set("octree.encode", stats.OCT)
	}
	if clock != nil {
		sparseLeg()
		denseLeg()
	} else {
		par.Do(sparseLeg, denseLeg)
	}
	if denseErr != nil {
		return nil, nil, fmt.Errorf("core: octree: %w", denseErr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: sparse: %w", err)
	}
	stats.COR = sparseEnc.TimeConvert
	stats.ORG = sparseEnc.TimeOrganize
	stats.SPA = sparseEnc.TimeCompress
	stats.NumLines = sparseEnc.NumLines
	stats.NumSparse = len(sparseEnc.DecodedOrder)
	stats.NumOutliers = len(sparseEnc.OutlierIdx)

	// Stage 6: outlier compression (OUT).
	t0 = time.Now()
	e.outlierPts = gather(e.outlierPts, pc, sparseEnc.OutlierIdx)
	outlierData, outlierOrder, err := encodeOutliers(e.outlierPts, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: outliers: %w", err)
	}
	stats.OUT = time.Since(t0)
	clock.set("outlier.encode", stats.OUT)

	// Final layout (Figure 8). Context-modeled streams need the v5
	// container, whose dialect byte says so.
	out := make([]byte, 0, len(denseEnc.Data)+len(sparseEnc.Data)+len(outlierData)+64)
	out = append(out, magic...)
	if opts.ContextModel {
		out = append(out, version5, dialectContext)
	} else {
		out = append(out, version2)
	}
	out = varint.AppendUint(out, uint64(opts.OutlierMode))
	out = appendSection(out, denseEnc.Data)
	out = appendSection(out, sparseEnc.Data)
	out = appendSection(out, outlierData)

	stats.BytesDense = len(denseEnc.Data)
	stats.BytesSparse = len(sparseEnc.Data)
	stats.BytesOutlier = len(outlierData)
	stats.BytesTotal = len(out)

	// Assemble the one-to-one mapping in decode order: dense, sparse,
	// outliers.
	mapping := e.mapping[:0]
	if cap(mapping) < len(pc) {
		mapping = make([]int32, 0, len(pc))
	}
	for _, j := range denseEnc.DecodedOrder {
		mapping = append(mapping, denseIdx[j])
	}
	mapping = append(mapping, sparseEnc.DecodedOrder...)
	for _, j := range outlierOrder {
		mapping = append(mapping, sparseEnc.OutlierIdx[j])
	}
	e.mapping = mapping
	stats.Mapping = mapping
	return out, stats, nil
}

// encoderPool backs the package-level Compress so one-shot callers still
// reuse scratch across frames.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// Compress encodes pc under opts and returns the bit sequence B plus
// compression statistics. The cloud must be in the sensor frame (origin at
// the sensor, §3.3). Unlike Encoder.Compress, the returned Stats are
// caller-owned. Streaming callers compressing many frames should hold an
// Encoder instead to also recycle the mapping buffer.
func Compress(pc geom.PointCloud, opts Options) ([]byte, *Stats, error) {
	e := encoderPool.Get().(*Encoder)
	e.Opts = opts
	out, stats, err := e.Compress(pc)
	if err != nil {
		encoderPool.Put(e)
		return nil, nil, err
	}
	// Detach the caller-owned results from the pooled scratch.
	st := *stats
	e.mapping = nil
	e.stats = Stats{}
	encoderPool.Put(e)
	return out, &st, nil
}

// Grains of Compress's own chunked passes over the points, sized like
// cluster's: a chunk takes a hundred microseconds or more, and a pass not
// worth two chunks stays on the caller.
const (
	scanGrain  = 1 << 15 // pre-scan and gathers: ~5 ns a point
	splitGrain = 1 << 16 // index split: a byte read and an int32 store, ~2 ns a point
)

// gather returns dst, reallocated only when its capacity is short, holding
// pc[idx[k]] at k.
func gather(dst, pc geom.PointCloud, idx []int32) geom.PointCloud {
	if cap(dst) < len(idx) {
		dst = make(geom.PointCloud, len(idx))
	}
	dst = dst[:len(idx)]
	par.Chunks(len(idx), scanGrain, func(_, lo, hi int) {
		for k, i := range idx[lo:hi] {
			dst[lo+k] = pc[i]
		}
	})
	return dst
}

// growIdx returns s with length n, reallocating only when capacity is
// short; the contents are unspecified.
func growIdx(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// splitPoints classifies the cloud into dense and sparse index sets, either
// by clustering or by the manual nearest-fraction split of Figure 10.
// bounds is the bounding box of pc. The returned slices live in the
// encoder's scratch.
func (e *Encoder) splitPoints(pc geom.PointCloud, bounds geom.AABB, opts Options) (dense, sparseIdx []int32) {
	if f := opts.ForceOctreeFraction; f >= 0 {
		if f > 1 {
			f = 1
		}
		order := make([]int32, len(pc))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := pc[order[a]].Norm(), pc[order[b]].Norm()
			if ra != rb {
				return ra < rb
			}
			return order[a] < order[b]
		})
		cut := int(math.Round(f * float64(len(pc))))
		return order[:cut], order[cut:]
	}
	params := cluster.Params{Q: opts.Q, K: opts.K, MinPts: opts.MinPts}
	if params.K <= 0 {
		params.K = 10
	}
	var res cluster.Result
	if opts.ExactClustering {
		res = cluster.CellBased(pc, params)
	} else {
		res = cluster.Approximate(pc, bounds, params)
	}
	// Both lists ascend: count the dense points of each chunk, then write
	// the chunks at the prefix of those counts.
	isDense := res.Dense
	before := par.Offsets(len(pc), splitGrain, func(lo, hi int) (n int) {
		for _, d := range isDense[lo:hi] {
			if d {
				n++
			}
		}
		return n
	})
	nDense := before[len(before)-1]
	dense, sparseIdx = growIdx(e.denseIdx, nDense), growIdx(e.sparseIdx, len(pc)-nDense)
	par.Chunks(len(pc), splitGrain, func(c, lo, hi int) {
		d, s := before[c], lo-before[c]
		for i := lo; i < hi; i++ {
			if isDense[i] {
				dense[d] = int32(i)
				d++
			} else {
				sparseIdx[s] = int32(i)
				s++
			}
		}
	})
	e.denseIdx, e.sparseIdx = dense, sparseIdx
	return dense, sparseIdx
}

// SplitPoints classifies pc into dense and sparse index sets exactly as
// Compress does under opts. It exists for the benchkit pack ablation, which
// replays the codec choice on the real per-stream data of a frame.
func SplitPoints(pc geom.PointCloud, opts Options) (dense, sparseIdx []int32) {
	var e Encoder
	_, bounds := scanPoints(pc, math.Inf(1))
	return e.splitPoints(pc, bounds, opts)
}

func encodeOutliers(pts geom.PointCloud, opts Options) ([]byte, []int, error) {
	switch opts.OutlierMode {
	case OutlierQuadtree:
		enc, err := outlier.Encode(pts, opts.Q)
		if err != nil {
			return nil, nil, err
		}
		return enc.Data, enc.DecodedOrder, nil
	case OutlierOctree:
		enc, err := octree.EncodeWith(pts, opts.Q, octree.EncodeOptions{Context: opts.ContextModel})
		if err != nil {
			return nil, nil, err
		}
		return enc.Data, enc.DecodedOrder, nil
	case OutlierNone:
		// Raw storage: three float32 per point, matching the paper's
		// "None" variant where outliers stay uncompressed.
		data := make([]byte, 0, 12*len(pts)+8)
		data = varint.AppendUint(data, uint64(len(pts)))
		for _, p := range pts {
			data = appendFloat32(data, float32(p.X))
			data = appendFloat32(data, float32(p.Y))
			data = appendFloat32(data, float32(p.Z))
		}
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		return data, order, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown outlier mode %d", opts.OutlierMode)
	}
}

// maxCoordinate returns the largest coordinate magnitude Compress accepts
// under error bound q: q·2^48, 5.6e12 m at 2 cm. Up to it every decoded
// point is within the bound. Two powers of two further the float64
// conversions have no q of precision left at the far point's range, and not
// only that point comes back outside the bound: the ordinary points sharing
// its quadtree square or its radial group do too.
func maxCoordinate(q float64) float64 { return q * (1 << 48) }

// finiteNorm reports whether the squared norm of p is neither NaN nor
// infinite, which also holds for none of its coordinates then.
func finiteNorm(p geom.Point) bool {
	n2 := p.X*p.X + p.Y*p.Y + p.Z*p.Z
	return !math.IsNaN(n2) && !math.IsInf(n2, 0)
}

// scanPoints is the one pass Compress makes over the raw cloud before
// clustering. It returns the lowest index of a point Compress refuses — a
// NaN or infinite coordinate, finite coordinates whose squared norm
// overflows, or a coordinate beyond limit in magnitude — or -1 if there is
// none, and the bounding box of the cloud, which means nothing if a point
// was refused (a NaN coordinate fails every comparison and is skipped).
func scanPoints(pc geom.PointCloud, limit float64) (bad int, bounds geom.AABB) {
	if len(pc) == 0 {
		return -1, bounds
	}
	type found struct {
		bad      int
		min, max geom.Point
	}
	chunks := make([]found, par.NumChunks(len(pc), scanGrain))
	par.Chunks(len(pc), scanGrain, func(c, lo, hi int) {
		f := found{bad: -1, min: pc[lo], max: pc[lo]}
		for i := lo; i < hi; i++ {
			p := pc[i]
			// NaN fails every comparison, so the negated form catches it.
			if f.bad < 0 && (!(math.Abs(p.X) <= limit && math.Abs(p.Y) <= limit && math.Abs(p.Z) <= limit) || !finiteNorm(p)) {
				f.bad = i
			}
			f.min.X, f.max.X = lower(f.min.X, p.X), upper(f.max.X, p.X)
			f.min.Y, f.max.Y = lower(f.min.Y, p.Y), upper(f.max.Y, p.Y)
			f.min.Z, f.max.Z = lower(f.min.Z, p.Z), upper(f.max.Z, p.Z)
		}
		chunks[c] = f
	})
	// Chunks cover ascending ranges, so the first hit is the lowest index.
	bad, bounds = -1, geom.AABB{Min: chunks[0].min, Max: chunks[0].max}
	for _, f := range chunks {
		if bad < 0 {
			bad = f.bad
		}
		bounds.Min = geom.Point{X: lower(bounds.Min.X, f.min.X), Y: lower(bounds.Min.Y, f.min.Y), Z: lower(bounds.Min.Z, f.min.Z)}
		bounds.Max = geom.Point{X: upper(bounds.Max.X, f.max.X), Y: upper(bounds.Max.Y, f.max.Y), Z: upper(bounds.Max.Z, f.max.Z)}
	}
	return bad, bounds
}

// lower and upper are min and max by one plain compare: math.Min and
// math.Max order zeros and propagate NaN, neither of which a bounding box
// of finite points needs, and cost several times as much.
func lower(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func upper(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

func appendFloat32(dst []byte, f float32) []byte {
	v := math.Float32bits(f)
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendSection(dst, payload []byte) []byte {
	dst = varint.AppendUint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}
