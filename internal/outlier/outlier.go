// Package outlier implements DBGC's optimized outlier compression (§3.6):
// sparse points that joined no polyline are coded in Cartesian space with a
// 2D quadtree over (x, y) — LiDAR outliers are far points spread over the
// xy-plane — while z, whose range is small, rides along as a delta-encoded
// attribute (L_z → ΔL_z → entropy coding → B_Δz appended after the
// quadtree stream).
package outlier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/quadtree"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed outlier stream.
var ErrCorrupt = errors.New("outlier: corrupt stream")

// Encoded is the output of Encode.
type Encoded struct {
	Data []byte
	// DecodedOrder maps decoded position j to the index (into the points
	// given to Encode) it reconstructs.
	DecodedOrder []int
}

// EncodeOptions tunes Encode.
type EncodeOptions struct {
	// Shards and BlockPack asked for the retired sharded (v3) and
	// blockpacked (v4) dialects: EncodeWith refuses Shards > 1 and
	// BlockPack with streamcodec.ErrRetiredDialect. Kept for bench/, which
	// names them; a change to the benchmark deletes them.
	Shards    int
	BlockPack bool
}

// Encode compresses the outlier points with per-dimension error bound q.
func Encode(points geom.PointCloud, q float64) (Encoded, error) {
	return EncodeWith(points, q, EncodeOptions{})
}

// EncodeWith is Encode with explicit options.
func EncodeWith(points geom.PointCloud, q float64, opts EncodeOptions) (Encoded, error) {
	if q <= 0 {
		return Encoded{}, fmt.Errorf("outlier: error bound must be positive, got %v", q)
	}
	if opts.Shards > 1 || opts.BlockPack {
		return Encoded{}, streamcodec.ErrRetiredDialect
	}
	xy := make([]quadtree.Point2, len(points))
	for i, p := range points {
		xy[i] = quadtree.Point2{X: p.X, Y: p.Y}
	}
	qt, err := quadtree.Encode(xy, q)
	if err != nil {
		return Encoded{}, fmt.Errorf("outlier: quadtree: %w", err)
	}

	// z values in decoded (quadtree traversal) order, quantized by 2q,
	// then delta encoded.
	zq := make([]int64, len(points))
	for j, oi := range qt.DecodedOrder {
		zq[j] = int64(math.Round(points[oi].Z / (2 * q)))
	}
	dz := make([]int64, len(zq))
	for i := range zq {
		if i == 0 {
			dz[i] = zq[i]
			continue
		}
		dz[i] = zq[i] - zq[i-1]
	}
	zStream := streamcodec.AppendInts(nil, streamcodec.Bulk.Own(), dz)

	out := make([]byte, 0, len(qt.Data)+len(zStream)+24)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(q))
	out = varint.AppendUint(out, uint64(len(qt.Data)))
	out = append(out, qt.Data...)
	out = varint.AppendUint(out, uint64(len(zStream)))
	out = append(out, zStream...)
	return Encoded{Data: out, DecodedOrder: qt.DecodedOrder}, nil
}

// Decode reconstructs the outlier points.
func Decode(data []byte) (geom.PointCloud, error) {
	return DecodeLimited(data, nil)
}

// DecodeOptions selects the stream dialect and resources of one decode.
type DecodeOptions struct {
	// Budget charges decoded points and entropy symbols; nil is unlimited.
	Budget *declimits.Budget
	// Sharded and BlockPack declared the retired sharded (v3) and
	// blockpacked (v4) dialects: a decode with either set is refused with
	// streamcodec.ErrRetiredDialect. Kept for bench/, which names them; a
	// change to the benchmark deletes them.
	Sharded, BlockPack bool
}

// DecodeLimited is Decode charging decoded points and entropy symbols
// against b. A nil budget is unlimited. Panics on hostile bytes are
// recovered into ErrCorrupt-wrapped errors.
func DecodeLimited(data []byte, b *declimits.Budget) (geom.PointCloud, error) {
	return DecodeWith(data, DecodeOptions{Budget: b})
}

// DecodeWith is Decode with explicit options.
func DecodeWith(data []byte, opts DecodeOptions) (geom.PointCloud, error) {
	return DecodeInto(geom.PointCloud{}, data, opts)
}

// PointCount returns the number of points the headers of an Encode stream
// declare, or zero if there is no reading them: an untrusted hint for
// sizing DecodeInto's destination.
func PointCount(data []byte) uint64 {
	_, qt, _, err := readHeader(data)
	if err != nil {
		return 0
	}
	n, _, err := varint.Uint(qt)
	if err != nil || n > math.MaxInt32 {
		return 0
	}
	return n
}

// readHeader reads the error bound and splits off the quadtree stream;
// rest starts at the z stream's length.
func readHeader(data []byte) (q float64, qt, rest []byte, err error) {
	if len(data) < 8 {
		return 0, nil, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	q = math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if !(q > 0) || math.IsInf(q, 0) {
		return 0, nil, nil, fmt.Errorf("%w: invalid error bound %v", ErrCorrupt, q)
	}
	qtLen, used, err := varint.Uint(data)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("outlier: quadtree length: %w", err)
	}
	data = data[used:]
	if qtLen > uint64(len(data)) {
		return 0, nil, nil, fmt.Errorf("%w: quadtree stream truncated", ErrCorrupt)
	}
	return q, data[:qtLen], data[qtLen:], nil
}

// DecodeInto is DecodeWith appending the points to dst.
func DecodeInto(dst geom.PointCloud, data []byte, opts DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	if opts.Sharded || opts.BlockPack {
		return nil, streamcodec.ErrRetiredDialect
	}
	b := opts.Budget
	q, qt, data, err := readHeader(data)
	if err != nil {
		return nil, err
	}
	xy, err := quadtree.DecodeLimited(qt, b)
	if err != nil {
		return nil, fmt.Errorf("outlier: quadtree: %w", err)
	}
	zLen, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("outlier: z length: %w", err)
	}
	data = data[used:]
	if zLen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: z stream truncated", ErrCorrupt)
	}
	dz, err := streamcodec.DecodeInts(nil, streamcodec.Bulk.Own(), data[:zLen], len(xy), b)
	if err != nil {
		return nil, fmt.Errorf("outlier: z deltas: %w", err)
	}

	out := slices.Grow(dst, len(xy))
	var zq int64
	for i := range xy {
		zq += dz[i]
		out = append(out, geom.Point{X: xy[i].X, Y: xy[i].Y, Z: float64(zq) * 2 * q})
	}
	return out, nil
}
