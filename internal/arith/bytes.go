package arith

import (
	"fmt"
	"slices"

	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// CompressBytes compresses buf with an order-0 adaptive byte model. It is
// the "arithmetic coder" building block the paper applies to serialized
// occupancy codes and varint-encoded delta streams.
func CompressBytes(buf []byte) []byte {
	return AppendCompressBytes(nil, buf)
}

// clampCap bounds a count taken from an untrusted stream header before it
// becomes an allocation capacity. Decoding appends past the clamp when the
// stream genuinely carries that many elements.
func clampCap(n int) int {
	const maxPrealloc = 1 << 22
	if n < 0 {
		return 0
	}
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

// DecompressBytes inverts CompressBytes. n is the number of original bytes,
// which callers carry out of band (all DBGC streams record their element
// counts).
func DecompressBytes(buf []byte, n int) ([]byte, error) {
	return DecompressBytesLimited(buf, n, nil)
}

// DecompressBytesLimited is DecompressBytes charging the n decoded symbols
// against b up front (the decode loop is bounded by n, so one charge
// covers it). A nil budget is unlimited.
func DecompressBytesLimited(buf []byte, n int, b *declimits.Budget) ([]byte, error) {
	return AppendDecompressBytes(nil, buf, n, b)
}

// AppendDecompressBytes is DecompressBytesLimited appending to dst.
func AppendDecompressBytes(dst, buf []byte, n int, b *declimits.Budget) ([]byte, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := GetDecoder(buf)
	m := GetModel(256)
	out := slices.Grow(dst, clampCap(n))
	for i := 0; i < n; i++ {
		sym, err := d.Decode(m)
		if err != nil {
			PutModel(m)
			PutDecoder(d)
			return nil, fmt.Errorf("arith: byte %d/%d: %w", i, n, err)
		}
		out = append(out, byte(sym))
	}
	PutModel(m)
	PutDecoder(d)
	return out, nil
}

// CompressInts zigzag-varint-serializes vs and arithmetic-codes the bytes.
// This is how DBGC entropy-codes integer delta sequences whose alphabet is
// unbounded (Δφ, ∇r, Δz).
func CompressInts(vs []int64) []byte {
	return AppendCompressInts(nil, vs)
}

// DecompressInts inverts CompressInts, decoding exactly n integers.
func DecompressInts(buf []byte, n int) ([]int64, error) {
	return DecompressIntsLimited(buf, n, nil)
}

// DecompressIntsLimited is DecompressInts charging the n decoded elements
// (and their 8 output bytes each) against b up front.
func DecompressIntsLimited(buf []byte, n int, b *declimits.Budget) ([]int64, error) {
	return AppendDecompressInts(nil, buf, n, b)
}

// AppendDecompressInts is DecompressIntsLimited appending the integers to
// dst, so a caller that decodes stream after stream can reuse one buffer.
func AppendDecompressInts(dst []int64, buf []byte, n int, b *declimits.Budget) ([]int64, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := GetDecoder(buf)
	m := GetModel(256)
	out := slices.Grow(dst, clampCap(n))
	for i := 0; i < n; i++ {
		v, err := decodeVarint(d, m)
		if err != nil {
			PutModel(m)
			PutDecoder(d)
			return nil, fmt.Errorf("arith: int %d/%d: %w", i, n, err)
		}
		out = append(out, varint.Unzigzag(v))
	}
	PutModel(m)
	PutDecoder(d)
	return out, nil
}

// CompressUints is CompressInts for unsigned sequences (e.g. polyline
// lengths, leaf point counts).
func CompressUints(vs []uint64) []byte {
	return AppendCompressUints(nil, vs)
}

// DecompressUints inverts CompressUints, decoding exactly n integers.
func DecompressUints(buf []byte, n int) ([]uint64, error) {
	return DecompressUintsLimited(buf, n, nil)
}

// DecompressUintsLimited is DecompressUints charging the n decoded
// elements (and their 8 output bytes each) against b up front.
func DecompressUintsLimited(buf []byte, n int, b *declimits.Budget) ([]uint64, error) {
	return AppendDecompressUints(nil, buf, n, b)
}

// AppendDecompressUints is DecompressUintsLimited appending to dst.
func AppendDecompressUints(dst []uint64, buf []byte, n int, b *declimits.Budget) ([]uint64, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := GetDecoder(buf)
	m := GetModel(256)
	out := slices.Grow(dst, clampCap(n))
	for i := 0; i < n; i++ {
		v, err := decodeVarint(d, m)
		if err != nil {
			PutModel(m)
			PutDecoder(d)
			return nil, fmt.Errorf("arith: uint %d/%d: %w", i, n, err)
		}
		out = append(out, v)
	}
	PutModel(m)
	PutDecoder(d)
	return out, nil
}

// decodeVarint reads LEB128 continuation bytes through the arithmetic
// decoder until a terminating byte arrives.
func decodeVarint(d *Decoder, m *Model) (uint64, error) {
	var v uint64
	var shift uint
	for {
		sym, err := d.Decode(m)
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, ErrCorrupt
		}
		v |= uint64(sym&0x7f) << shift
		if sym < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
