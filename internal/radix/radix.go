// Package radix implements least-significant-digit radix sorting of uint64
// keys with an optional int32 payload. The encode hot paths sort packed
// grid-cell keys and quantized coordinates, whose distributions make a
// counting sort several times faster than the comparison sorts it
// replaces: each pass is a sequential counting scan plus a scatter, and
// only the bits that differ between keys are sorted on at all. Packed keys
// are bit fields with most high bits of every field unused, so the digits
// are cut from the occupied bits of each field — three 21-bit axis fields
// holding 12+12+9 occupied bits sort in three passes, not in the seven a
// byte-aligned digit spends on them.
package radix

import "math/bits"

// Scratch holds the ping-pong buffers of one sort. A zero Scratch is ready
// to use; reusing one across sorts avoids the per-sort allocations.
type Scratch struct {
	keys    []uint64
	payload []int32
}

const (
	// maxDigitBits is the widest digit a pass sorts on: 2^12 counters, 16
	// KiB, stay in the L1 cache beside the keys streaming through. On the
	// cell keys of a LiDAR frame — scan order, so neighbours in the input
	// are neighbours in space — three 12-bit passes measured 2.0 ms for
	// 123k keys, five passes of up to 9 or 10 bits 2.7 ms, six of up to 8
	// bits 2.9 ms, and the seven byte-aligned passes they replace 2.3 ms.
	maxDigitBits = 12
	// gapBits is the run of bits equal in all keys that ends a field: the
	// digits of one field never reach across a longer run into the next.
	gapBits = 3
)

// digit is one pass: the keys are ordered by bits [shift, shift+width).
type digit struct{ shift, width uint }

// maxDigits is the most passes a sort can need: a word has room for sixteen
// one-bit fields gapBits apart.
const maxDigits = 64 / (1 + gapBits)

// digits appends to ds the passes that sort on the bits set in diff — the
// bits that differ between keys — least significant first. Runs of
// differing bits with no gap of gapBits between them form a field; a field
// wider than maxDigitBits is cut into the fewest equal digits that fit.
func digits(ds []digit, diff uint64) []digit {
	for diff != 0 {
		lo := uint(bits.TrailingZeros64(diff))
		hi := lo // one past the field's highest differing bit
		for rest := diff >> lo; rest != 0; {
			run := uint(bits.TrailingZeros64(^rest)) // differing bits from here
			hi += run
			rest >>= run
			gap := uint(bits.TrailingZeros64(rest))
			if rest == 0 || gap >= gapBits {
				break
			}
			hi += gap
			rest >>= gap
		}
		span := hi - lo
		passes := (span + maxDigitBits - 1) / maxDigitBits
		width := (span + passes - 1) / passes
		for s := lo; s < hi; s += width {
			ds = append(ds, digit{shift: s, width: min(width, hi-s)})
		}
		if hi >= 64 {
			break
		}
		diff &^= 1<<hi - 1
	}
	return ds
}

// Sort sorts keys ascending, permuting payload alongside when it is
// non-nil (payload must then have the same length). The sort is stable:
// equal keys keep their input order. s may be nil, in which case the
// temporary buffers are allocated for this call only.
func Sort(keys []uint64, payload []int32, s *Scratch) {
	n := len(keys)
	if payload != nil && len(payload) != n {
		panic("radix: payload length mismatch")
	}
	if n < 2 {
		return
	}
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return
	}
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	src, dst := keys, s.keys[:n]
	var psrc, pdst []int32
	if payload != nil {
		if cap(s.payload) < n {
			s.payload = make([]int32, n)
		}
		psrc, pdst = payload, s.payload[:n]
	}

	var counts [1 << maxDigitBits]int32
	var passes [maxDigits]digit
	for _, d := range digits(passes[:0], diff) {
		next := counts[:1<<d.width]
		mask := uint64(len(next) - 1)
		clear(next)
		for _, k := range src {
			next[k>>d.shift&mask]++
		}
		// Turn the counts into the first slot of each digit value.
		var sum int32
		for b, cnt := range next {
			next[b] = sum
			sum += cnt
		}
		if psrc == nil {
			for _, k := range src {
				b := k >> d.shift & mask
				dst[next[b]] = k
				next[b]++
			}
		} else {
			for i, k := range src {
				b := k >> d.shift & mask
				j := next[b]
				next[b]++
				dst[j] = k
				pdst[j] = psrc[i]
			}
			psrc, pdst = pdst, psrc
		}
		src, dst = dst, src
	}
	// An odd number of passes leaves the result in the scratch buffers;
	// copy it back into the caller's slices.
	if &src[0] != &keys[0] {
		copy(keys, src)
		if payload != nil {
			copy(payload, psrc)
		}
	}
}
