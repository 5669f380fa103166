package arith

import (
	"fmt"
	"slices"

	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// The stream coders: an order-0 adaptive model over a small alphabet
// (occupancy codes, reference symbols) or over the LEB128 bytes of an
// integer sequence whose alphabet is unbounded (Δφ, ∇r, Δz, lengths,
// counts). Each is one append-style pair: the encoder appends the stream to
// dst; the decoder appends exactly n elements to dst, charging them against
// b up front (the decode loop is bounded by n, so one charge covers it; a
// nil budget is unlimited). Element counts travel out of band: every DBGC
// stream records its own next to its payload.

// AppendCompressCodes appends the order-0 adaptive coding of codes, symbols
// of {0,...,alphabet-1}, to dst and returns the extended slice.
func AppendCompressCodes(dst, codes []byte, alphabet int) []byte {
	e := GetEncoder()
	m := GetModel(alphabet)
	for _, c := range codes {
		e.Encode(m, int(c))
	}
	dst = e.AppendFinish(dst)
	PutModel(m)
	PutEncoder(e)
	return dst
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

// AppendDecompressCodes inverts AppendCompressCodes, appending the n codes
// to dst.
func AppendDecompressCodes(dst, buf []byte, n, alphabet int, b *declimits.Budget) ([]byte, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := GetDecoder(buf)
	m := GetModel(alphabet)
	defer func() {
		PutModel(m)
		PutDecoder(d)
	}()
	out := slices.Grow(dst, clampCap(n))
	for i := 0; i < n; i++ {
		sym, err := d.Decode(m)
		if err != nil {
			return nil, fmt.Errorf("arith: code %d/%d: %w", i, n, err)
		}
		out = append(out, byte(sym))
	}
	return out, nil
}

// AppendCompressInts appends the arithmetic coding of the zigzag LEB128
// bytes of vs to dst.
func AppendCompressInts(dst []byte, vs []int64) []byte {
	bp := getBuf()
	buf := varint.AppendInts((*bp)[:0], vs)
	dst = AppendCompressCodes(dst, buf, 256)
	*bp = buf
	putBuf(bp)
	return dst
}

// AppendCompressUints is AppendCompressInts for unsigned sequences (polyline
// lengths, leaf point counts).
func AppendCompressUints(dst []byte, vs []uint64) []byte {
	bp := getBuf()
	buf := varint.AppendUints((*bp)[:0], vs)
	dst = AppendCompressCodes(dst, buf, 256)
	*bp = buf
	putBuf(bp)
	return dst
}

// AppendDecompressInts inverts AppendCompressInts, appending the n integers
// to dst, so a caller that decodes stream after stream can reuse one buffer.
func AppendDecompressInts(dst []int64, buf []byte, n int, b *declimits.Budget) ([]int64, error) {
	return appendDecompressVarints(dst, buf, n, b, true)
}

// AppendDecompressUints inverts AppendCompressUints, appending to dst.
func AppendDecompressUints(dst []uint64, buf []byte, n int, b *declimits.Budget) ([]uint64, error) {
	return appendDecompressVarints(dst, buf, n, b, false)
}

func appendDecompressVarints[T int64 | uint64](dst []T, buf []byte, n int, b *declimits.Budget, zigzag bool) ([]T, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	d := GetDecoder(buf)
	m := GetModel(256)
	defer func() {
		PutModel(m)
		PutDecoder(d)
	}()
	out := slices.Grow(dst, clampCap(n))
	for i := 0; i < n; i++ {
		v, err := decodeVarint(d, m)
		if err != nil {
			return nil, fmt.Errorf("arith: integer %d/%d: %w", i, n, err)
		}
		if zigzag {
			v = uint64(varint.Unzigzag(v))
		}
		out = append(out, T(v))
	}
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
