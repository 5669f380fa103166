package streamcodec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"dbgc/internal/declimits"
	"dbgc/internal/varint"
)

// lzLevel is the effort of the LZ77 candidate: compress/flate's level 5,
// hash chains at most 32 deep. On the θ streams — three or four distinct
// byte values — level 9's 4096-deep chains cost ten times the time for about
// 1% fewer bytes, and levels 1-4 find too few of the matches that pay.
const lzLevel = 5

// deflater holds the two DEFLATE writers with their outputs and the varint
// staging buffer, recycled through deflatePool: a flate.Writer is hundreds
// of kilobytes of hash chains that Reset keeps.
type deflater struct {
	stage             []byte
	huffman, lz       *flate.Writer
	huffmanOut, lzOut bytes.Buffer
}

var deflatePool = sync.Pool{New: func() any {
	return &deflater{huffman: newDeflater(flate.HuffmanOnly), lz: newDeflater(lzLevel)}
}}

func newDeflater(level int) *flate.Writer {
	w, err := flate.NewWriter(nil, level)
	if err != nil {
		panic(err) // only fails for an invalid level
	}
	return w
}

// appendDeflatedInts codes the zigzag varints of vs as a raw DEFLATE stream
// (§3.5 step 6, "Deflate on θ"), the smaller of two encodings of them:
// Huffman coding alone, and LZ77 matching at lzLevel. Ties go to Huffman
// only. A short-period or constant stream is all matches and shrinks a
// hundredfold under LZ77; the usual θ stream is near-memoryless noise on a
// tiny alphabet, where a match costs more bits than the literals it
// replaces and Huffman coding alone is smaller. Either is what any inflater
// reads; nothing in the format says which was chosen.
func appendDeflatedInts(dst []byte, vs []int64) []byte {
	z := deflatePool.Get().(*deflater)
	defer deflatePool.Put(z)
	z.stage = varint.AppendInts(z.stage[:0], vs)
	run := func(w *flate.Writer, out *bytes.Buffer) []byte {
		out.Reset()
		w.Reset(out)
		if _, err := w.Write(z.stage); err != nil {
			panic(err) // bytes.Buffer cannot fail
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		return out.Bytes()
	}
	best := run(z.huffman, &z.huffmanOut)
	if lz := run(z.lz, &z.lzOut); len(lz) < len(best) {
		best = lz
	}
	return append(dst, best...)
}

// inflater is a DEFLATE reader with its source and its output, recycled
// through inflatePool: flate.NewReader allocates the 32 KB window and the
// Huffman tables that Reset keeps.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
	raw []byte
}

var inflatePool = sync.Pool{New: func() any { return new(inflater) }}

// inflateInts appends the n integers of a DeflateVarint stream to dst. A
// zigzag varint is at most 10 bytes, so a valid stream inflates to at most
// 10 bytes an element; a DEFLATE stream can expand ~1000x, and the bound —
// charged against b before anything inflates — stops a bomb before it
// materializes.
func inflateInts(dst []int64, data []byte, n int, b *declimits.Budget) ([]int64, error) {
	maxLen := 10 * int64(n)
	if err := b.Mem(maxLen); err != nil {
		return nil, err
	}
	z := inflatePool.Get().(*inflater)
	defer inflatePool.Put(z)
	z.src.Reset(data)
	if z.r == nil {
		z.r = flate.NewReader(&z.src)
	} else if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("streamcodec: inflate: %w", err)
	}
	out := bytes.NewBuffer(z.raw[:0])
	_, err := out.ReadFrom(io.LimitReader(z.r, maxLen+1))
	z.raw = out.Bytes()
	if err != nil {
		return nil, fmt.Errorf("streamcodec: inflate: %w", err)
	}
	if int64(len(z.raw)) > maxLen {
		return nil, fmt.Errorf("%w: inflated stream exceeds %d bytes", ErrCorrupt, maxLen)
	}
	return varint.AppendDecodeInts(dst, z.raw, n)
}
