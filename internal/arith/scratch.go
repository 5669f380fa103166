package arith

import (
	"math/bits"
	"sync"
)

// Scratch pools for the coder's hot-path state. Every Compress/Decompress
// of a DBGC frame builds a handful of encoders, decoders, and frequency
// models whose backing arrays are identical from frame to frame; pooling
// them removes the per-frame allocation churn without changing any stream
// byte. The reuse contract (see DESIGN.md §8): a pooled object is only
// valid between Get and Put, Put must not be called while any slice
// returned by the object is still referenced, and pooled objects are never
// shared across goroutines.

// modelPools pools Models by power-of-two alphabet size (2^1 .. 2^8). All
// models on DBGC's hot paths — byte models (256), quadtree occupancy (16),
// reference symbols (4) — have power-of-two alphabets.
var modelPools [9]sync.Pool

// poolIndex returns the pool slot for alphabet size n, or -1 when n is not
// poolable (not a power of two, or out of range).
func poolIndex(n int) int {
	if n < 2 || n > 256 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n))
}

// GetModel returns a model over {0,...,n-1} in its initial uniform state,
// reusing a pooled one when possible. Return it with PutModel.
func GetModel(n int) *Model {
	if i := poolIndex(n); i >= 0 {
		if v := modelPools[i].Get(); v != nil {
			m := v.(*Model)
			m.Reset()
			return m
		}
	}
	return NewModel(n)
}

// PutModel returns a model obtained from GetModel to its pool.
func PutModel(m *Model) {
	if m == nil {
		return
	}
	if i := poolIndex(m.n); i >= 0 {
		modelPools[i].Put(m)
	}
}

var encoderPool = sync.Pool{New: func() any { return NewEncoder() }}

// GetEncoder returns a reset encoder with a reusable output buffer. Callers
// that pool encoders must extract the stream with AppendFinish (which
// copies) rather than Finish (which aliases the internal buffer), then call
// PutEncoder.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder obtained from GetEncoder to the pool. The
// encoder and any buffer returned by its Finish must not be used afterward.
func PutEncoder(e *Encoder) {
	if e != nil {
		encoderPool.Put(e)
	}
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a decoder positioned at the start of buf, reusing a
// pooled one when possible. Return it with PutDecoder.
func GetDecoder(buf []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(buf)
	return d
}

// PutDecoder releases a decoder obtained from GetDecoder. It drops the
// decoder's reference to the input buffer so the pool does not retain it.
func PutDecoder(d *Decoder) {
	if d == nil {
		return
	}
	d.buf = nil
	decoderPool.Put(d)
}

// bufPool recycles the varint staging buffers used by the integer
// compressors.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }
