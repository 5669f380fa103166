// Package attr compresses per-point attributes alongside DBGC's geometry
// streams. The paper's Definition 2.1 notes that points may carry
// attributes such as intensity; DBGC itself is a geometry compressor, so
// this package is the companion channel: attribute values are reordered
// into geometry-decode order using the compressor's one-to-one mapping,
// quantized, delta-encoded, and entropy-coded. Spatially adjacent points
// have similar reflectivity, so decode order — which follows octree cells
// and polylines — makes the deltas small.
package attr

import (
	"errors"
	"fmt"
	"math"

	"dbgc/internal/arith"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed attribute stream.
var ErrCorrupt = errors.New("attr: corrupt stream")

// MaxBits bounds attribute quantization depth.
const MaxBits = 16

// EncodeIntensity compresses vals with the given quantization depth.
// mapping is Stats.Mapping from the geometry compressor: mapping[j] is the
// original index decoded at position j, so the stream stores values in
// decode order and DecodeIntensity returns them aligned with the decoded
// cloud. Values are clamped to [0, 1] (KITTI intensity range).
func EncodeIntensity(vals []float32, mapping []int32, bits int) ([]byte, error) {
	if bits < 1 || bits > MaxBits {
		return nil, fmt.Errorf("attr: bits %d out of [1,%d]", bits, MaxBits)
	}
	if len(mapping) != len(vals) {
		return nil, fmt.Errorf("attr: %d values but mapping of %d", len(vals), len(mapping))
	}
	maxQ := int64(1)<<uint(bits) - 1
	deltas := make([]int64, len(vals))
	var prev int64
	for j, oi := range mapping {
		if oi < 0 || int(oi) >= len(vals) {
			return nil, fmt.Errorf("attr: mapping[%d]=%d out of range", j, oi)
		}
		v := float64(vals[oi])
		if math.IsNaN(v) || v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		q := int64(math.Round(v * float64(maxQ)))
		deltas[j] = q - prev
		prev = q
	}
	out := make([]byte, 0, len(vals)/2+16)
	out = varint.AppendUint(out, uint64(bits))
	out = varint.AppendUint(out, uint64(len(vals)))
	payload := arith.AppendCompressInts(nil, deltas)
	out = varint.AppendUint(out, uint64(len(payload)))
	out = append(out, payload...)
	return out, nil
}

// DecodeIntensity reconstructs the intensity channel in geometry-decode
// order: result[j] belongs to decoded point j.
func DecodeIntensity(data []byte) ([]float32, error) {
	bits64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("attr: bits: %w", err)
	}
	data = data[used:]
	if bits64 < 1 || bits64 > MaxBits {
		return nil, fmt.Errorf("%w: bits=%d", ErrCorrupt, bits64)
	}
	n64, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("attr: count: %w", err)
	}
	data = data[used:]
	if n64 > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: count overflow", ErrCorrupt)
	}
	plen, used, err := varint.Uint(data)
	if err != nil {
		return nil, fmt.Errorf("attr: payload length: %w", err)
	}
	data = data[used:]
	if plen > uint64(len(data)) {
		return nil, fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
	deltas, err := arith.AppendDecompressInts(nil, data[:plen], int(n64), nil)
	if err != nil {
		return nil, fmt.Errorf("attr: deltas: %w", err)
	}
	maxQ := int64(1)<<uint(bits64) - 1
	out := make([]float32, n64)
	var q int64
	for j := range out {
		q += deltas[j]
		if q < 0 || q > maxQ {
			return nil, fmt.Errorf("%w: value %d out of range at %d", ErrCorrupt, q, j)
		}
		out[j] = float32(float64(q) / float64(maxQ))
	}
	return out, nil
}
