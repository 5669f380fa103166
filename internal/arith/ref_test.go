package arith

// The arithmetic coder as it stood before the bulk-renormalising rewrite
// (bit-at-a-time Witten–Neal–Cleary loop over a bit reader/writer, Fenwick
// tree model), kept verbatim apart from the ref prefixes as the reference
// the differential tests in diff_test.go hold the live coder to: same
// bytes, same symbols, same error at the same symbol.

import "errors"

var errRefEOF = errors.New("bitio: unexpected end of bit stream")

// refBitWriter accumulates bits most-significant-bit first into an internal byte
// buffer. The zero value is ready to use.
type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // number of bits currently held in cur (0..7)
}

// WriteBit appends a single bit (any nonzero b counts as 1).
func (w *refBitWriter) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// Bytes flushes any partial byte (padding with zero bits) and returns the
// accumulated buffer. The writer remains usable; further writes continue
// from the flushed state, so call Bytes once when encoding is finished.
func (w *refBitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.cur <<= 8 - w.nCur
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// Reset clears the writer for reuse.
func (w *refBitWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur = 0, 0
}

// refBitReader consumes bits most-significant-bit first from a byte slice.
type refBitReader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within buf[pos] (0 = MSB)
}

// Reset repositions the reader at the start of buf, replacing any previous
// buffer.
func (r *refBitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos, r.bit = 0, 0
}

// ReadBit returns the next bit (0 or 1).
func (r *refBitReader) ReadBit() (int, error) {
	if r.pos >= len(r.buf) {
		return 0, errRefEOF
	}
	b := int(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// Register geometry for the 32-bit integer implementation of arithmetic
// coding. All arithmetic is done in uint64 to avoid overflow in
// range*cum products.
const (
	refCodeBits = 32
	refTop      = uint64(1) << refCodeBits
	refHalf     = refTop >> 1
	refQuarter  = refTop >> 2
	refThreeQtr = refHalf + refQuarter
	refCodeMask = refTop - 1
)

// refEncoder is an arithmetic encoder writing to an internal bit buffer.
// Create one with NewEncoder, encode symbols against one or more Models,
// then call Finish.
type refEncoder struct {
	w        refBitWriter
	low      uint64
	high     uint64
	pending  int
	finished bool
}

// NewEncoder returns a ready encoder.
func newRefEncoder() *refEncoder {
	return &refEncoder{high: refCodeMask}
}

// Reset clears the encoder for reuse, keeping the output buffer's capacity.
func (e *refEncoder) Reset() {
	e.w.Reset()
	e.low, e.high = 0, refCodeMask
	e.pending = 0
	e.finished = false
}

func (e *refEncoder) emit(bit int) {
	e.w.WriteBit(bit)
	inv := 1 - bit
	for ; e.pending > 0; e.pending-- {
		e.w.WriteBit(inv)
	}
}

// Encode codes sym using model m and updates the model.
func (e *refEncoder) Encode(m *refModel, sym int) {
	lo, hi, total := m.interval(sym)
	e.encodeInterval(uint64(lo), uint64(hi), uint64(total))
	m.update(sym)
}

// EncodeStatic codes sym against m without adapting the model. Used for
// fixed-probability side information.
func (e *refEncoder) EncodeStatic(m *refModel, sym int) {
	lo, hi, total := m.interval(sym)
	e.encodeInterval(uint64(lo), uint64(hi), uint64(total))
}

func (e *refEncoder) encodeInterval(lo, hi, total uint64) {
	if hi <= lo || total == 0 {
		panic("arith: empty coding interval")
	}
	span := e.high - e.low + 1
	e.high = e.low + span*hi/total - 1
	e.low = e.low + span*lo/total
	for {
		switch {
		case e.high < refHalf:
			e.emit(0)
		case e.low >= refHalf:
			e.emit(1)
			e.low -= refHalf
			e.high -= refHalf
		case e.low >= refQuarter && e.high < refThreeQtr:
			e.pending++
			e.low -= refQuarter
			e.high -= refQuarter
		default:
			return
		}
		e.low = e.low << 1
		e.high = e.high<<1 | 1
	}
}

// Finish flushes the terminating bits and returns the encoded buffer. The
// encoder must not be used afterwards.
func (e *refEncoder) Finish() []byte {
	if !e.finished {
		// Emit one disambiguating bit plus pending carries; a second bit
		// pins the final interval.
		e.pending++
		if e.low < refQuarter {
			e.emit(0)
		} else {
			e.emit(1)
		}
		e.finished = true
	}
	return e.w.Bytes()
}

// AppendFinish flushes the terminating bits and appends the encoded stream
// to dst, returning the extended slice. Unlike Finish, the returned bytes
// do not alias the encoder's internal buffer, so the encoder can be pooled
// and reused afterwards.
func (e *refEncoder) AppendFinish(dst []byte) []byte {
	return append(dst, e.Finish()...)
}

// EncodeUniform codes v under a uniform distribution over {0,...,total-1}
// at a cost of log2(total) bits. The kd-tree coder uses it for split
// counts.
func (e *refEncoder) EncodeUniform(v, total uint32) {
	if v >= total {
		panic("arith: uniform symbol out of range")
	}
	e.encodeInterval(uint64(v), uint64(v)+1, uint64(total))
}

// refDecoder is the matching arithmetic decoder.
type refDecoder struct {
	r       refBitReader
	low     uint64
	high    uint64
	code    uint64
	overrun int // zero bits synthesized past end of stream
}

// refMaxOverrun bounds how many bits a decoder may synthesize past the end of
// the buffer. A valid stream needs at most the register width; anything
// more means the stream was truncated.
const refMaxOverrun = refCodeBits + 2

// NewDecoder returns a decoder over buf.
func newRefDecoder(buf []byte) *refDecoder {
	d := new(refDecoder)
	d.Reset(buf)
	return d
}

// Reset repositions the decoder at the start of buf, discarding all prior
// state, so one refDecoder can decode many streams without reallocating.
func (d *refDecoder) Reset(buf []byte) {
	d.r.Reset(buf)
	d.low, d.high = 0, refCodeMask
	d.code = 0
	d.overrun = 0
	for i := 0; i < refCodeBits; i++ {
		d.code = d.code<<1 | uint64(d.nextBit())
	}
}

func (d *refDecoder) nextBit() int {
	b, err := d.r.ReadBit()
	if err != nil {
		// The encoder does not emit trailing zeros; synthesize them.
		d.overrun++
		return 0
	}
	return b
}

// Decode decodes one symbol using model m and updates the model.
func (d *refDecoder) Decode(m *refModel) (int, error) {
	sym, err := d.decodeWith(m)
	if err != nil {
		return 0, err
	}
	m.update(sym)
	return sym, nil
}

// DecodeStatic decodes one symbol without adapting the model.
func (d *refDecoder) DecodeStatic(m *refModel) (int, error) {
	return d.decodeWith(m)
}

// DecodeUniform inverts EncodeUniform.
func (d *refDecoder) DecodeUniform(total uint32) (uint32, error) {
	if total == 0 {
		return 0, ErrCorrupt
	}
	if d.overrun > refMaxOverrun {
		return 0, ErrCorrupt
	}
	t := uint64(total)
	span := d.high - d.low + 1
	offset := d.code - d.low
	target := ((offset+1)*t - 1) / span
	if target >= t {
		return 0, ErrCorrupt
	}
	sym := uint32(target)
	d.high = d.low + span*(target+1)/t - 1
	d.low = d.low + span*target/t
	for {
		switch {
		case d.high < refHalf:
			// nothing
		case d.low >= refHalf:
			d.low -= refHalf
			d.high -= refHalf
			d.code -= refHalf
		case d.low >= refQuarter && d.high < refThreeQtr:
			d.low -= refQuarter
			d.high -= refQuarter
			d.code -= refQuarter
		default:
			return sym, nil
		}
		d.low = d.low << 1
		d.high = d.high<<1 | 1
		d.code = d.code<<1 | uint64(d.nextBit())
	}
}

func (d *refDecoder) decodeWith(m *refModel) (int, error) {
	if d.overrun > refMaxOverrun {
		return 0, ErrCorrupt
	}
	total := uint64(m.total)
	span := d.high - d.low + 1
	offset := d.code - d.low
	target := ((offset+1)*total - 1) / span
	if target >= total {
		return 0, ErrCorrupt
	}
	sym, lo32, hi32 := m.find(uint32(target))
	lo, hi := uint64(lo32), uint64(hi32)
	d.high = d.low + span*hi/total - 1
	d.low = d.low + span*lo/total
	for {
		switch {
		case d.high < refHalf:
			// nothing
		case d.low >= refHalf:
			d.low -= refHalf
			d.high -= refHalf
			d.code -= refHalf
		case d.low >= refQuarter && d.high < refThreeQtr:
			d.low -= refQuarter
			d.high -= refQuarter
			d.code -= refQuarter
		default:
			return sym, nil
		}
		d.low = d.low << 1
		d.high = d.high<<1 | 1
		d.code = d.code<<1 | uint64(d.nextBit())
	}
}

// refModel is an adaptive frequency model over a fixed alphabet. A Fenwick
// (binary indexed) tree stores the counts so cumulative frequencies and
// symbol lookups cost O(log n).
type refModel struct {
	tree  []uint32 // 1-based Fenwick tree over symbol counts
	n     int      // alphabet size
	total uint32
}

// NewModel returns a model over the alphabet {0, ..., n-1} with all symbol
// counts initialized to 1.
func newRefModel(n int) *refModel {
	if n <= 0 {
		panic("arith: model alphabet size must be positive")
	}
	m := &refModel{tree: make([]uint32, n+1), n: n}
	for s := 0; s < n; s++ {
		m.add(s, 1)
	}
	m.total = uint32(n)
	return m
}

// Reset restores the model to its initial uniform state (every count 1),
// as if freshly returned by NewModel, without allocating. A Fenwick node i
// covering all-one counts holds exactly i&(-i).
func (m *refModel) Reset() {
	for i := 1; i <= m.n; i++ {
		m.tree[i] = uint32(i & (-i))
	}
	m.total = uint32(m.n)
}

func (m *refModel) add(sym int, delta uint32) {
	for i := sym + 1; i <= m.n; i += i & (-i) {
		m.tree[i] += delta
	}
}

// cumBelow returns the sum of counts of symbols < sym.
func (m *refModel) cumBelow(sym int) uint32 {
	var s uint32
	for i := sym; i > 0; i -= i & (-i) {
		s += m.tree[i]
	}
	return s
}

// interval returns the cumulative interval [lo, hi) of sym and the current
// total.
func (m *refModel) interval(sym int) (lo, hi, total uint32) {
	lo = m.cumBelow(sym)
	hi = m.cumBelow(sym + 1)
	return lo, hi, m.total
}

// find returns the symbol whose cumulative interval contains target, along
// with its interval bounds.
func (m *refModel) find(target uint32) (sym int, lo, hi uint32) {
	// Walk the Fenwick tree from the highest power of two downward.
	pos := 0
	rem := target
	mask := 1
	for mask<<1 <= m.n {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := pos + mask
		if next <= m.n && m.tree[next] <= rem {
			pos = next
			rem -= m.tree[next]
		}
	}
	lo = target - rem
	sym = pos
	hi = lo + m.count(sym)
	return sym, lo, hi
}

func (m *refModel) count(sym int) uint32 {
	c := m.cumBelow(sym+1) - m.cumBelow(sym)
	return c
}

// update increases sym's frequency, halving all counts first if the total
// would exceed maxTotal.
func (m *refModel) update(sym int) {
	if m.total+increment > maxTotal {
		m.rescale()
	}
	m.add(sym, increment)
	m.total += increment
}

// rescale halves every count, rounding up so no symbol becomes impossible.
func (m *refModel) rescale() {
	counts := make([]uint32, m.n)
	for s := 0; s < m.n; s++ {
		counts[s] = m.count(s)
	}
	for i := range m.tree {
		m.tree[i] = 0
	}
	m.total = 0
	for s, c := range counts {
		nc := (c + 1) / 2
		m.add(s, nc)
		m.total += nc
	}
}

// Update advances the adaptive state for sym exactly as coding the symbol
// would, without emitting bits, so encoder and decoder can keep auxiliary
// (shared prior) models in lockstep.
func (m *refModel) Update(sym int) {
	if sym < 0 || sym >= m.n {
		panic("arith: Update symbol out of range")
	}
	m.update(sym)
}

// CopyFrom overwrites m with an exact copy of src's state. Both models must
// share one alphabet size. It exists so a context model can be seeded from a
// warmed shared model instead of the uniform prior, which removes most of
// the adaptation cost of splitting a short stream across many contexts.
func (m *refModel) CopyFrom(src *refModel) {
	if m.n != src.n {
		panic("arith: CopyFrom across alphabet sizes")
	}
	copy(m.tree, src.tree)
	m.total = src.total
}

// Size returns the alphabet size.
func (m *refModel) Size() int { return m.n }
