// Package varint provides variable-length integer serialization with zigzag
// mapping for signed values. Delta-encoded coordinate sequences in DBGC are
// serialized as zigzag varints before entropy coding, so small magnitudes —
// the common case after delta encoding (§3.5) — occupy one byte.
package varint

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is returned when a buffer ends inside a varint.
var ErrTruncated = errors.New("varint: truncated input")

// Zigzag maps a signed integer to an unsigned one so that small magnitudes
// of either sign map to small values: 0→0, -1→1, 1→2, -2→3, ...
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUint appends u in unsigned LEB128 form.
func AppendUint(dst []byte, u uint64) []byte { return binary.AppendUvarint(dst, u) }

// AppendInt appends v in zigzag LEB128 form.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, Zigzag(v)) }

// Uint decodes an unsigned varint from buf, returning the value and the
// number of bytes consumed.
func Uint(buf []byte) (uint64, int, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w (n=%d)", ErrTruncated, n)
	}
	return u, n, nil
}

// Int decodes a zigzag varint from buf.
func Int(buf []byte) (int64, int, error) {
	u, n, err := Uint(buf)
	if err != nil {
		return 0, 0, err
	}
	return Unzigzag(u), n, nil
}

// AppendInts appends the concatenated zigzag varints of vs to dst.
func AppendInts(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		dst = AppendInt(dst, v)
	}
	return dst
}

// AppendUints appends the concatenated varints of vs to dst.
func AppendUints(dst []byte, vs []uint64) []byte {
	for _, v := range vs {
		dst = AppendUint(dst, v)
	}
	return dst
}

// EncodeInts serializes a slice of signed integers as concatenated zigzag
// varints.
func EncodeInts(vs []int64) []byte {
	return AppendInts(make([]byte, 0, len(vs)*2), vs)
}

// DecodeInts decodes exactly n zigzag varints from buf. It returns an error
// if buf is truncated or holds trailing garbage.
func DecodeInts(buf []byte, n int) ([]int64, error) {
	return AppendDecodeInts(make([]int64, 0, n), buf, n)
}

// AppendDecodeInts is DecodeInts appending the values to dst.
func AppendDecodeInts(out []int64, buf []byte, n int) ([]int64, error) {
	for i := 0; i < n; i++ {
		v, used, err := Int(buf)
		if err != nil {
			return nil, fmt.Errorf("varint: value %d/%d: %w", i, n, err)
		}
		out = append(out, v)
		buf = buf[used:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("varint: %d trailing bytes after %d values", len(buf), n)
	}
	return out, nil
}

// EncodeUints serializes a slice of unsigned integers as concatenated
// varints.
func EncodeUints(vs []uint64) []byte {
	return AppendUints(make([]byte, 0, len(vs)*2), vs)
}

// DecodeUints decodes exactly n unsigned varints from buf.
func DecodeUints(buf []byte, n int) ([]uint64, error) {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v, used, err := Uint(buf)
		if err != nil {
			return nil, fmt.Errorf("varint: value %d/%d: %w", i, n, err)
		}
		out = append(out, v)
		buf = buf[used:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("varint: %d trailing bytes after %d values", len(buf), n)
	}
	return out, nil
}
