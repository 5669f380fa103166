package arith

import (
	"errors"
	"math/bits"
)

// Register geometry of the 32-bit integer implementation of arithmetic
// coding. low, high and code live in uint32 registers; the range*cum
// products are done in uint64.
const (
	codeBits = 32
	half     = uint32(1) << (codeBits - 1)
)

// ErrCorrupt is returned when a decoder's arithmetic state becomes
// inconsistent, which indicates a corrupted or truncated stream.
var ErrCorrupt = errors.New("arith: corrupt stream")

// Renormalisation. Witten, Neal and Cleary shift the registers one bit at
// a time: E1/E2 while low and high agree on their top bit (the bit is
// settled and goes out), E3 while low = 01… and high = 10… (the interval
// straddles the middle; the second bit is dropped and remembered as
// pending). Both runs are bit counts. The E1/E2 run is the common prefix
// of low and high, LeadingZeros32(low^high) bits, and it ends with low
// starting 0 and high starting 1. An E3 step keeps those two top bits, so
// no E1/E2 step can follow one, and the E3 run is as long as the ones
// after low's top bit and the zeros after high's both last. settled and
// straddle return the two counts; the coders apply each with one shift.

// settled is the number of leading bits low and high share.
func settled(low, high uint32) uint { return uint(bits.LeadingZeros32(low ^ high)) }

// straddle is the number of E3 steps for low = 0…, high = 1…: the shorter
// of the run of ones after low's top bit and the run of zeros after
// high's.
func straddle(low, high uint32) uint {
	return uint(bits.LeadingZeros32(^(low << 1) | high<<1))
}

// narrow returns the sub-interval [lo, hi) of total within [low, high].
func narrow(low, high uint32, lo, hi, total uint64) (uint32, uint32) {
	span := uint64(high-low) + 1
	return low + uint32(span*lo/total), low + uint32(span*hi/total) - 1
}

// Encoder is an arithmetic encoder writing to an internal byte buffer.
// Create one with NewEncoder, encode symbols against one or more Models,
// then call Finish.
type Encoder struct {
	buf      []byte
	acc      uint64 // bits not yet in buf, in the low nacc bits
	nacc     uint   // < 8 between calls
	low      uint32
	high     uint32
	pending  uint // straddle bits owed after the next settled bit
	finished bool
}

// NewEncoder returns a ready encoder.
func NewEncoder() *Encoder {
	return &Encoder{high: ^uint32(0)}
}

// Reset clears the encoder for reuse, keeping the output buffer's capacity.
func (e *Encoder) Reset() {
	*e = Encoder{buf: e.buf[:0], high: ^uint32(0)}
}

// put appends the low n bits of v, most significant first; n <= 32.
func (e *Encoder) put(v uint32, n uint) {
	e.acc = e.acc<<n | uint64(v)
	e.nacc += n
	for e.nacc >= 8 {
		e.nacc -= 8
		e.buf = append(e.buf, byte(e.acc>>e.nacc))
	}
}

// emit writes bit followed by the pending run of its complement.
func (e *Encoder) emit(bit uint32) {
	e.put(bit, 1)
	run := bit - 1 // all ones after a 0 bit, all zeros after a 1 bit
	for ; e.pending > 32; e.pending -= 32 {
		e.put(run, 32)
	}
	e.put(run>>(32-e.pending), e.pending)
	e.pending = 0
}

// Encode codes sym using model m and updates the model.
func (e *Encoder) Encode(m *Model, sym int) {
	lo, hi, total := m.interval(sym)
	e.encodeInterval(uint64(lo), uint64(hi), uint64(total))
	m.update(sym)
}

// EncodeStatic codes sym against m without adapting the model. Used for
// fixed-probability side information.
func (e *Encoder) EncodeStatic(m *Model, sym int) {
	lo, hi, total := m.interval(sym)
	e.encodeInterval(uint64(lo), uint64(hi), uint64(total))
}

func (e *Encoder) encodeInterval(lo, hi, total uint64) {
	if hi <= lo || total == 0 {
		panic("arith: empty coding interval")
	}
	low, high := narrow(e.low, e.high, lo, hi, total)
	if n := settled(low, high); n > 0 {
		top := low >> (32 - n)
		if e.pending == 0 {
			e.put(top, n)
		} else {
			e.emit(top >> (n - 1))
			e.put(top&(1<<(n-1)-1), n-1)
		}
		low, high = low<<n, high<<n|(1<<n-1)
	}
	k := straddle(low, high)
	e.pending += k
	e.low = low << k &^ half
	e.high = high<<k | (1<<k - 1) | half
}

// Finish flushes the terminating bits and returns the encoded buffer. The
// encoder must not be used afterwards.
func (e *Encoder) Finish() []byte {
	if !e.finished {
		// Emit one disambiguating bit plus pending carries; a second bit
		// pins the final interval.
		e.pending++
		e.emit(e.low >> (codeBits - 2))
		if e.nacc > 0 {
			e.put(0, 8-e.nacc)
		}
		e.finished = true
	}
	return e.buf
}

// AppendFinish flushes the terminating bits and appends the encoded stream
// to dst, returning the extended slice. Unlike Finish, the returned bytes
// do not alias the encoder's internal buffer, so the encoder can be pooled
// and reused afterwards.
func (e *Encoder) AppendFinish(dst []byte) []byte {
	return append(dst, e.Finish()...)
}

// EncodeUniform codes v under a uniform distribution over {0,...,total-1}
// at a cost of log2(total) bits. The kd-tree coder uses it for split
// counts.
func (e *Encoder) EncodeUniform(v, total uint32) {
	if v >= total {
		panic("arith: uniform symbol out of range")
	}
	e.encodeInterval(uint64(v), uint64(v)+1, uint64(total))
}

// Decoder is the matching arithmetic decoder.
type Decoder struct {
	buf  []byte
	pos  int    // next byte of buf to load into acc
	acc  uint64 // loaded bits not yet consumed, from the top
	nacc uint   // how many of them are real; the rest are zeros
	used int    // bits consumed, including zeros synthesized past the end
	low  uint32
	high uint32
	code uint32
}

// maxOverrun bounds how many bits a decoder may synthesize past the end of
// the buffer. A valid stream needs at most the register width; anything
// more means the stream was truncated.
const maxOverrun = codeBits + 2

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder {
	d := new(Decoder)
	d.Reset(buf)
	return d
}

// Reset repositions the decoder at the start of buf, discarding all prior
// state, so one Decoder can decode many streams without reallocating.
func (d *Decoder) Reset(buf []byte) {
	*d = Decoder{buf: buf, high: ^uint32(0)}
	d.code = d.take(codeBits)
}

// take consumes the next n bits, n <= 32. The encoder does not emit
// trailing zeros; past the end of the buffer take synthesizes them.
func (d *Decoder) take(n uint) uint32 {
	if d.nacc < n {
		for d.nacc <= 56 && d.pos < len(d.buf) {
			d.acc |= uint64(d.buf[d.pos]) << (56 - d.nacc)
			d.pos++
			d.nacc += 8
		}
		if d.nacc < n {
			d.nacc = n
		}
	}
	v := uint32(d.acc >> (64 - n))
	d.acc <<= n
	d.nacc -= n
	d.used += int(n)
	return v
}

// truncated reports whether more zeros were synthesized than any valid
// stream needs.
func (d *Decoder) truncated() bool { return d.used > 8*len(d.buf)+maxOverrun }

// Decode decodes one symbol using model m and updates the model.
func (d *Decoder) Decode(m *Model) (int, error) {
	sym, err := d.DecodeStatic(m)
	if err != nil {
		return 0, err
	}
	m.update(sym)
	return sym, nil
}

// DecodeStatic decodes one symbol without adapting the model.
func (d *Decoder) DecodeStatic(m *Model) (int, error) {
	target, err := d.target(uint64(m.total))
	if err != nil {
		return 0, err
	}
	sym, lo, hi := m.find(uint32(target))
	d.consume(uint64(lo), uint64(hi), uint64(m.total))
	return sym, nil
}

// DecodeUniform inverts EncodeUniform.
func (d *Decoder) DecodeUniform(total uint32) (uint32, error) {
	if total == 0 {
		return 0, ErrCorrupt
	}
	target, err := d.target(uint64(total))
	if err != nil {
		return 0, err
	}
	d.consume(target, target+1, uint64(total))
	return uint32(target), nil
}

// target returns the cumulative frequency the code register points at.
func (d *Decoder) target(total uint64) (uint64, error) {
	if d.truncated() {
		return 0, ErrCorrupt
	}
	span := uint64(d.high-d.low) + 1
	target := ((uint64(d.code-d.low)+1)*total - 1) / span
	if target >= total {
		return 0, ErrCorrupt
	}
	return target, nil
}

// consume narrows the interval to [lo, hi) of total, which contains the
// target, and renormalises.
func (d *Decoder) consume(lo, hi, total uint64) {
	low, high := narrow(d.low, d.high, lo, hi, total)
	code := d.code
	if n := settled(low, high); n > 0 {
		low, high = low<<n, high<<n|(1<<n-1)
		code = code<<n | d.take(n)
	}
	k := straddle(low, high)
	d.low = low << k &^ half
	d.high = high<<k | (1<<k - 1) | half
	d.code = code&half | code<<k&^half | d.take(k)
}
