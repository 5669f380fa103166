package arith

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesRoundTripEmpty(t *testing.T) {
	out, err := decompressBytes(compressBytes(nil), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("want empty, got %d bytes", len(out))
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(4000)
		data := make([]byte, n)
		// Skewed distribution: mostly small symbols, like delta streams.
		for i := range data {
			data[i] = byte(rng.ExpFloat64() * 3)
		}
		enc := compressBytes(data)
		dec, err := decompressBytes(enc, len(data), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestBytesRoundTripQuick(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := decompressBytes(compressBytes(data), len(data), nil)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedCompression(t *testing.T) {
	// A heavily skewed stream must compress near its entropy, well below
	// 8 bits/byte.
	data := make([]byte, 20000)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		if rng.Float64() < 0.9 {
			data[i] = 0
		} else {
			data[i] = byte(rng.Intn(4))
		}
	}
	enc := compressBytes(data)
	// Shannon entropy of the stream, in bits per byte (§2.1).
	var counts [256]int
	for _, c := range data {
		counts[c]++
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(len(data))
			h -= p * math.Log2(p)
		}
	}
	gotBits := float64(len(enc)*8) / float64(len(data))
	if gotBits > h*1.15+0.2 {
		t.Fatalf("adaptive coder too far from entropy: %.3f bits/byte vs entropy %.3f", gotBits, h)
	}
}

func TestIntsRoundTrip(t *testing.T) {
	vs := []int64{0, 1, -1, 100, -100, 1 << 40, -(1 << 40), 0, 0, 0}
	dec, err := decompressInts(compressInts(vs), len(vs), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if dec[i] != vs[i] {
			t.Fatalf("value %d = %d, want %d", i, dec[i], vs[i])
		}
	}
}

func TestIntsRoundTripQuick(t *testing.T) {
	f := func(vs []int64) bool {
		dec, err := decompressInts(compressInts(vs), len(vs), nil)
		if err != nil {
			return false
		}
		for i := range vs {
			if dec[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUintsRoundTripQuick(t *testing.T) {
	f := func(vs []uint64) bool {
		dec, err := decompressUints(compressUints(vs), len(vs), nil)
		if err != nil {
			return false
		}
		for i := range vs {
			if dec[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallAlphabetModel(t *testing.T) {
	// The L_ref stream uses a 4-symbol model (§3.5 step 8).
	rng := rand.New(rand.NewSource(11))
	syms := make([]int, 5000)
	for i := range syms {
		syms[i] = rng.Intn(4)
	}
	e := NewEncoder()
	m := NewModel(4)
	for _, s := range syms {
		e.Encode(m, s)
	}
	buf := e.Finish()

	d := NewDecoder(buf)
	m2 := NewModel(4)
	for i, want := range syms {
		got, err := d.Decode(m2)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d = %d, want %d", i, got, want)
		}
	}
}

func TestModelRescale(t *testing.T) {
	// Push one symbol enough times to force repeated rescaling and ensure
	// coding still round-trips.
	n := (maxTotal/increment)*3 + 100
	e := NewEncoder()
	m := NewModel(3)
	for i := 0; i < n; i++ {
		e.Encode(m, i%2)
	}
	buf := e.Finish()
	d := NewDecoder(buf)
	m2 := NewModel(3)
	for i := 0; i < n; i++ {
		got, err := d.Decode(m2)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != i%2 {
			t.Fatalf("symbol %d = %d, want %d", i, got, i%2)
		}
	}
}

func TestModelFindConsistency(t *testing.T) {
	m := NewModel(17)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		m.update(rng.Intn(17))
		target := uint32(rng.Intn(int(m.total)))
		sym, lo, hi := m.find(target)
		if target < lo || target >= hi {
			t.Fatalf("find(%d) interval [%d,%d) does not contain target", target, lo, hi)
		}
		wlo, whi, _ := m.interval(sym)
		if wlo != lo || whi != hi {
			t.Fatalf("find/interval disagree for sym %d: [%d,%d) vs [%d,%d)", sym, lo, hi, wlo, whi)
		}
	}
}

func TestCorruptStream(t *testing.T) {
	// Decoding far more symbols than a short stream encodes must fail
	// with ErrCorrupt rather than spinning or panicking.
	enc := compressBytes([]byte{1, 2, 3})
	d := NewDecoder(enc)
	m := NewModel(256)
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = d.Decode(m); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected ErrCorrupt after stream exhaustion")
	}
}

func TestDecompressTruncated(t *testing.T) {
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	enc := compressBytes(data)
	_, err := decompressBytes(enc[:len(enc)/4], len(data), nil)
	if err == nil {
		t.Fatal("expected error decoding truncated stream")
	}
}

func BenchmarkCompressBytes(b *testing.B) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.ExpFloat64() * 2)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compressBytes(data)
	}
}

func BenchmarkDecompressBytes(b *testing.B) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = byte(rng.ExpFloat64() * 2)
	}
	enc := compressBytes(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decompressBytes(enc, len(data), nil); err != nil {
			b.Fatal(err)
		}
	}
}
