// Package blockpack is a pure-Go block bitpacking codec for the integer
// hot paths of the DBGC container (leaf counts, polyline lengths, angular
// and radial deltas, z deltas). It packs fixed 128-value blocks at the
// per-block minimum bit width and patches the few values that exceed it as
// exceptions, in the FastPFOR lineage of Lemire & Boytsov; exception high
// bits are coded with a StreamVByte-style control-byte group scheme. The
// wire layout keeps the control area, positions, and packed payload
// contiguous and byte-aligned per block, so SIMD kernels can replace the
// scalar loops later without a format change.
//
// Per block of len <= 128 values:
//
//	width    1 byte   packed bit width w (0..64)
//	excs     1 byte   exception count E (0..len)
//	pos[E]   E bytes  exception positions, strictly ascending, < len
//	ctrl     ceil(E/4) bytes, 2-bit length classes (1, 2, 4, 8 bytes)
//	high[E]  little-endian high bits (v >> w) sized by the classes
//	payload  ceil(len*w/8) bytes, w-bit values packed LSB-first
//
// The width is chosen per block by exact byte-cost minimization, so blocks
// of near-constant values collapse to two bytes (w = 0, E = 0). A stream is
// the concatenation of its blocks; the element count travels out of band,
// like every other DBGC stream. Packing needs no heap scratch (blocks live
// in fixed stack arrays) and unpacking allocates only its output.
//
// Blocks restart wherever a stream does, so internal/streamcodec can put a
// blockpacked stream inside the container v3 shard framing, one run of
// blocks per shard, like the entropy-coded streams it replaces.
package blockpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed blockpack stream.
var ErrCorrupt = errors.New("blockpack: corrupt stream")

// BlockSize is the number of values per full block. 128 matches the
// FastPFOR page size: large enough to amortize the two header bytes, small
// enough that one outlier value only forces exceptions within its own block.
const BlockSize = 128

// excClassBytes maps a 2-bit StreamVByte length class to its byte count.
var excClassBytes = [4]int{1, 2, 4, 8}

// excClass returns the smallest length class holding b bits (1 <= b <= 64).
func excClass(b int) int {
	switch {
	case b <= 8:
		return 0
	case b <= 16:
		return 1
	case b <= 32:
		return 2
	default:
		return 3
	}
}

// payloadBytes is the packed payload size of n values at width w.
func payloadBytes(n, w int) int { return (n*w + 7) / 8 }

// packBlock appends one block (len(vs) <= BlockSize, non-empty) to dst.
func packBlock(dst []byte, vs []uint64) []byte {
	var blen [BlockSize]uint8
	var hist [65]int16
	maxb := 0
	for i, v := range vs {
		b := bits.Len64(v)
		blen[i] = uint8(b)
		hist[b]++
		if b > maxb {
			maxb = b
		}
	}

	// Exact cost minimization over candidate widths, descending so equal
	// costs resolve to the larger width (fewer exceptions, faster unpack).
	bestW := maxb
	bestCost := 2 + payloadBytes(len(vs), maxb)
	for w := maxb - 1; w >= 0; w-- {
		excs, excBytes := 0, 0
		for b := w + 1; b <= maxb; b++ {
			c := int(hist[b])
			if c == 0 {
				continue
			}
			excs += c
			excBytes += c * excClassBytes[excClass(b-w)]
		}
		cost := 2 + payloadBytes(len(vs), w)
		if excs > 0 {
			cost += excs + (excs+3)/4 + excBytes
		}
		if cost < bestCost {
			bestCost, bestW = cost, w
		}
	}
	w := bestW

	excs := 0
	for b := w + 1; b <= maxb; b++ {
		excs += int(hist[b])
	}
	dst = append(dst, byte(w), byte(excs))
	if excs > 0 {
		// Positions, then the StreamVByte group coding of the high bits:
		// control bytes first (2-bit classes, 4 values per byte), then the
		// little-endian high values sized by their class.
		for i, b := range blen[:len(vs)] {
			if int(b) > w {
				dst = append(dst, byte(i))
			}
		}
		ctrlAt := len(dst)
		for i := 0; i < (excs+3)/4; i++ {
			dst = append(dst, 0)
		}
		j := 0
		for i, b := range blen[:len(vs)] {
			if int(b) <= w {
				continue
			}
			hi := vs[i] >> uint(w)
			cls := excClass(int(b) - w)
			dst[ctrlAt+j/4] |= byte(cls) << uint(2*(j%4))
			switch cls {
			case 0:
				dst = append(dst, byte(hi))
			case 1:
				dst = binary.LittleEndian.AppendUint16(dst, uint16(hi))
			case 2:
				dst = binary.LittleEndian.AppendUint32(dst, uint32(hi))
			default:
				dst = binary.LittleEndian.AppendUint64(dst, hi)
			}
			j++
		}
	}
	if w == 0 {
		return dst
	}

	// LSB-first bit packing of the low w bits of every value.
	uw := uint(w)
	mask := ^uint64(0)
	if w < 64 {
		mask = uint64(1)<<uw - 1
	}
	var acc uint64
	nb := uint(0)
	for _, v := range vs {
		v &= mask
		acc |= v << nb
		if nb+uw >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			spilled := 64 - nb
			nb = nb + uw - 64
			if spilled < 64 {
				acc = v >> spilled
			} else {
				acc = 0
			}
		} else {
			nb += uw
		}
	}
	for nb > 0 {
		dst = append(dst, byte(acc))
		acc >>= 8
		if nb >= 8 {
			nb -= 8
		} else {
			nb = 0
		}
	}
	return dst
}

// load64 reads up to 8 little-endian bytes of p starting at off, zero-padded
// past the end.
func load64(p []byte, off int) uint64 {
	if off+8 <= len(p) {
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for j := off; j < len(p); j++ {
		v |= uint64(p[j]) << uint(8*(j-off))
	}
	return v
}

// unpackBlock decodes one block of exactly len(out) values from the front
// of data and returns the bytes consumed.
func unpackBlock(out []uint64, data []byte) (int, error) {
	bl := len(out)
	if len(data) < 2 {
		return 0, fmt.Errorf("%w: truncated block header", ErrCorrupt)
	}
	w := int(data[0])
	excs := int(data[1])
	if w > 64 {
		return 0, fmt.Errorf("%w: bit width %d", ErrCorrupt, w)
	}
	if excs > bl {
		return 0, fmt.Errorf("%w: %d exceptions in a %d-value block", ErrCorrupt, excs, bl)
	}
	p := 2

	var pos [BlockSize]uint8
	var high [BlockSize]uint64
	if excs > 0 {
		if len(data) < p+excs {
			return 0, fmt.Errorf("%w: truncated exception positions", ErrCorrupt)
		}
		prev := -1
		for j := 0; j < excs; j++ {
			pj := int(data[p+j])
			if pj <= prev || pj >= bl {
				return 0, fmt.Errorf("%w: exception position %d", ErrCorrupt, pj)
			}
			pos[j] = uint8(pj)
			prev = pj
		}
		p += excs
		nc := (excs + 3) / 4
		if len(data) < p+nc {
			return 0, fmt.Errorf("%w: truncated exception control", ErrCorrupt)
		}
		ctrl := data[p : p+nc]
		p += nc
		for j := 0; j < excs; j++ {
			cls := int(ctrl[j/4]>>uint(2*(j%4))) & 3
			nb := excClassBytes[cls]
			if len(data) < p+nb {
				return 0, fmt.Errorf("%w: truncated exception values", ErrCorrupt)
			}
			switch cls {
			case 0:
				high[j] = uint64(data[p])
			case 1:
				high[j] = uint64(binary.LittleEndian.Uint16(data[p:]))
			case 2:
				high[j] = uint64(binary.LittleEndian.Uint32(data[p:]))
			default:
				high[j] = binary.LittleEndian.Uint64(data[p:])
			}
			p += nb
		}
	}

	pb := payloadBytes(bl, w)
	if len(data) < p+pb {
		return 0, fmt.Errorf("%w: truncated block payload", ErrCorrupt)
	}
	payload := data[p : p+pb]
	switch {
	case w == 0:
		for i := range out {
			out[i] = 0
		}
	case w <= 57:
		// One unaligned 64-bit load always covers a value: after the 3-bit
		// shift at most 57 bits remain, so w <= 57 fits.
		mask := uint64(1)<<uint(w) - 1
		bitpos := 0
		for i := range out {
			chunk := load64(payload, bitpos>>3)
			out[i] = chunk >> uint(bitpos&7) & mask
			bitpos += w
		}
	default:
		mask := ^uint64(0)
		if w < 64 {
			mask = uint64(1)<<uint(w) - 1
		}
		bitpos := 0
		for i := range out {
			off := bitpos >> 3
			sh := uint(bitpos & 7)
			v := load64(payload, off) >> sh
			if sh > 0 && off+8 < len(payload) {
				v |= uint64(payload[off+8]) << (64 - sh)
			}
			out[i] = v & mask
			bitpos += w
		}
	}
	for j := 0; j < excs; j++ {
		out[pos[j]] |= high[j] << uint(w)
	}
	return p + pb, nil
}

// PackUint64 appends the blockpacked coding of vs to dst and returns the
// extended slice. An empty input appends nothing.
func PackUint64(dst []byte, vs []uint64) []byte { return pack(dst, vs, false) }

// PackInt64 appends the blockpacked coding of vs, zigzag-mapped so small
// magnitudes of either sign pack narrow.
func PackInt64(dst []byte, vs []int64) []byte { return pack(dst, vs, true) }

func pack[T int64 | uint64](dst []byte, vs []T, zigzag bool) []byte {
	var blk [BlockSize]uint64
	for len(vs) > 0 {
		bl := min(len(vs), BlockSize)
		for i, v := range vs[:bl] {
			blk[i] = uint64(v)
			if zigzag {
				blk[i] = varint.Zigzag(int64(v))
			}
		}
		dst = packBlock(dst, blk[:bl])
		vs = vs[bl:]
	}
	return dst
}

// UnpackUint64 decodes exactly n values from data, which must hold their
// blocks and nothing else, and appends them to dst, charging them against
// b (nil means unlimited).
func UnpackUint64(dst []uint64, data []byte, n int, b *declimits.Budget) ([]uint64, error) {
	return unpack(dst, data, n, b, false)
}

// UnpackInt64 inverts PackInt64 as UnpackUint64 inverts PackUint64.
func UnpackInt64(dst []int64, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	return unpack(dst, data, n, b, true)
}

func unpack[T int64 | uint64](dst []T, data []byte, n int, b *declimits.Budget, zigzag bool) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative element count", ErrCorrupt)
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	out := slices.Grow(dst, declimits.CapPrealloc(uint64(n)))
	var blk [BlockSize]uint64
	for left := n; left > 0; {
		bl := min(left, BlockSize)
		used, err := unpackBlock(blk[:bl], data)
		if err != nil {
			return nil, err
		}
		data = data[used:]
		left -= bl
		for _, u := range blk[:bl] {
			if zigzag {
				u = uint64(varint.Unzigzag(u))
			}
			out = append(out, T(u))
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
	}
	return out, nil
}
