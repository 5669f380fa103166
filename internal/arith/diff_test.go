package arith

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests: the live coder against the reference in ref_test.go.
// A script is a sequence of coding steps over a few models; both encoders
// run it and must produce the same bytes, and both decoders replay its
// step kinds over a buffer (intact or damaged) and must return the same
// symbols up to the same first error.

// step is one coding step: a symbol under model (adaptive or static), or,
// with model < 0, sym under a uniform distribution over total values.
type step struct {
	model  int
	static bool
	sym    uint32
	total  uint32
}

func encodeScript(sizes []int, script []step) (live, ref []byte) {
	e, re := NewEncoder(), newRefEncoder()
	ms, rms := make([]*Model, len(sizes)), make([]*refModel, len(sizes))
	for i, n := range sizes {
		ms[i], rms[i] = NewModel(n), newRefModel(n)
	}
	for _, s := range script {
		switch {
		case s.model < 0:
			e.EncodeUniform(s.sym, s.total)
			re.EncodeUniform(s.sym, s.total)
		case s.static:
			e.EncodeStatic(ms[s.model], int(s.sym))
			re.EncodeStatic(rms[s.model], int(s.sym))
		default:
			e.Encode(ms[s.model], int(s.sym))
			re.Encode(rms[s.model], int(s.sym))
		}
	}
	return e.Finish(), re.Finish()
}

// decodeScript replays the step kinds of script, cyclically for steps
// steps, over buf with both decoders. It returns the symbols decoded
// before the first error (nil if none) or a description of the first
// disagreement.
func decodeScript(buf []byte, sizes []int, script []step, steps int) (syms []uint32, mismatch string) {
	d, rd := NewDecoder(buf), newRefDecoder(buf)
	ms, rms := make([]*Model, len(sizes)), make([]*refModel, len(sizes))
	for i, n := range sizes {
		ms[i], rms[i] = NewModel(n), newRefModel(n)
	}
	for i := 0; i < steps; i++ {
		s := script[i%len(script)]
		var got, want uint32
		var err, rerr error
		switch {
		case s.model < 0:
			got, err = d.DecodeUniform(s.total)
			want, rerr = rd.DecodeUniform(s.total)
		case s.static:
			var g, w int
			g, err = d.DecodeStatic(ms[s.model])
			w, rerr = rd.DecodeStatic(rms[s.model])
			got, want = uint32(g), uint32(w)
		default:
			var g, w int
			g, err = d.Decode(ms[s.model])
			w, rerr = rd.Decode(rms[s.model])
			got, want = uint32(g), uint32(w)
		}
		if (err != nil) != (rerr != nil) {
			return syms, fmt.Sprintf("step %d: error %v, reference %v", i, err, rerr)
		}
		if err != nil {
			return syms, ""
		}
		if got != want {
			return syms, fmt.Sprintf("step %d: symbol %d, reference %d", i, got, want)
		}
		syms = append(syms, got)
	}
	return syms, ""
}

// checkScript holds the live coder to the reference on one script: equal
// bytes, a faithful round trip, and equal behaviour on the intact buffer
// read past its end, a truncation, a bit flip and junk.
func checkScript(t *testing.T, sizes []int, script []step, junk []byte, cut, flip int) {
	t.Helper()
	live, ref := encodeScript(sizes, script)
	if !bytes.Equal(live, ref) {
		t.Fatalf("encoded bytes differ: %d bytes, reference %d", len(live), len(ref))
	}
	if len(script) == 0 {
		return
	}
	syms, bad := decodeScript(live, sizes, script, len(script))
	if bad != "" || len(syms) != len(script) {
		t.Fatalf("intact: %d/%d symbols %s", len(syms), len(script), bad)
	}
	for i, s := range script {
		if syms[i] != s.sym {
			t.Fatalf("intact: step %d decoded %d, want %d", i, syms[i], s.sym)
		}
	}
	// Read on past the end of the script: a decoder that runs dry (and it
	// need not, zeros decode to symbol 0 ever more cheaply) must do so at
	// the reference's step.
	steps := len(script) + 2000
	damaged := map[string][]byte{
		"overlong":  live,
		"truncated": live[:cut%(len(live)+1)],
		"junk":      junk,
	}
	flipped := append([]byte(nil), live...)
	flipped[flip%len(flipped)] ^= 1 << uint(flip%8)
	damaged["flipped"] = flipped
	for name, buf := range damaged {
		if _, bad := decodeScript(buf, sizes, script, steps); bad != "" {
			t.Fatalf("%s: %s", name, bad)
		}
	}
}

// randomScript draws a script over one model of alphabet size n (model 0)
// and a byte model (model 1) with the given skew, salted with static and
// uniform steps.
func randomScript(rng *rand.Rand, n, skew, length int) []step {
	draw := func(n int) uint32 {
		switch skew {
		case 0: // uniform
			return uint32(rng.Intn(n))
		case 1: // geometric, like the varint-byte delta streams
			v := int(rng.ExpFloat64() * 2)
			if v >= n {
				v = n - 1
			}
			return uint32(v)
		case 2: // near constant
			if rng.Intn(50) == 0 {
				return uint32(rng.Intn(n))
			}
			return uint32(n / 3)
		default: // heavy on the high symbols: the long scans
			return uint32(n - 1 - rng.Intn(1+n/8))
		}
	}
	script := make([]step, length)
	for i := range script {
		switch r := rng.Intn(40); {
		case r == 0:
			total := uint32(1 + rng.Intn(1<<20))
			script[i] = step{model: -1, sym: uint32(rng.Intn(int(total))), total: total}
		case r == 1:
			script[i] = step{model: 0, static: true, sym: uint32(rng.Intn(n))}
		case r < 8:
			script[i] = step{model: 1, sym: draw(256)}
		default:
			script[i] = step{model: 0, sym: draw(n)}
		}
	}
	return script
}

func TestCoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 3, 4, 16, 17, 100, 255, 256, 300} {
		for skew := 0; skew < 4; skew++ {
			for trial := 0; trial < 6; trial++ {
				// Up to 5000 symbols: a model rescales every
				// maxTotal/increment = 1024 of them.
				length := rng.Intn(5001)
				if trial == 0 {
					length = 0
				}
				junk := make([]byte, rng.Intn(64))
				rng.Read(junk)
				checkScript(t, []int{n, 256}, randomScript(rng, n, skew, length), junk, rng.Int(), rng.Int())
			}
		}
	}
}

// TestCoderLongPendingRun drives the straddle counter past one 32-bit
// flush: the middle symbol of a static 3-symbol model keeps the interval
// centred on the midpoint, so no bit settles until Finish.
func TestCoderLongPendingRun(t *testing.T) {
	script := make([]step, 400)
	for i := range script {
		script[i] = step{model: 0, static: true, sym: 1}
	}
	live, _ := encodeScript([]int{3}, script)
	if len(live) < 40 {
		t.Fatalf("%d bytes: the pending run never built up", len(live))
	}
	checkScript(t, []int{3}, script, nil, 7, 11)
}

// FuzzCoderMatchesReference derives a script and a damaged buffer from the
// fuzz input and holds the live coder to the reference on both.
func FuzzCoderMatchesReference(f *testing.F) {
	f.Add([]byte("density-based geometry compression"), uint8(0), uint32(5))
	f.Add(bytes.Repeat([]byte{0, 0, 0, 1, 0, 0xff}, 300), uint8(3), uint32(1<<20))
	f.Add([]byte{}, uint8(7), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, alpha uint8, damage uint32) {
		sizes := []int{[]int{2, 3, 4, 16, 17, 100, 255, 256, 300}[int(alpha)%9], 256}
		script := make([]step, len(data))
		for i, b := range data {
			switch {
			case i%7 == 6:
				total := 1 + (uint32(b)*4099+uint32(i)*65537)%(1<<20)
				script[i] = step{model: -1, sym: (uint32(b)*131 + uint32(i)) % total, total: total}
			case i%5 == 4:
				script[i] = step{model: 1, sym: uint32(b)}
			default:
				script[i] = step{model: 0, static: b&0x80 != 0 && i%3 == 0, sym: uint32(int(b) % sizes[0])}
			}
		}
		checkScript(t, sizes, script, data, int(damage>>1), int(damage))
	})
}
