package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbgc/internal/geom"
	"dbgc/internal/streamcodec"
)

// randomScanCloud builds a random but scan-structured cloud: rings of
// points at random elevations with random gaps, magnitudes, and noise —
// the kind of structure Organize expects, with adversarial parameters.
func randomScanCloud(rng *rand.Rand) geom.PointCloud {
	var pc geom.PointCloud
	rings := 1 + rng.Intn(12)
	for b := 0; b < rings; b++ {
		el := -0.4 + rng.Float64()*0.4
		r := 3 + rng.Float64()*80
		steps := 10 + rng.Intn(300)
		azStep := 2 * math.Pi / float64(steps)
		for a := 0; a < steps; a++ {
			if rng.Float64() < 0.2 {
				continue // gaps
			}
			rr := r + rng.NormFloat64()*(0.01+rng.Float64()*0.5)
			az := float64(a)*azStep + rng.NormFloat64()*azStep*0.1
			pc = append(pc, geom.ToCartesian(geom.Spherical{Theta: az, Phi: math.Pi/2 - el, R: rr}))
		}
	}
	return pc
}

// TestPropertyRoundTrip: for random scan clouds, random q, random options,
// the decoded points always match the encoder's mapping within √3·q, and
// no point is lost.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		pc := randomScanCloud(rng)
		if len(pc) == 0 {
			continue
		}
		q := []float64{0.001, 0.005, 0.02, 0.1}[rng.Intn(4)]
		opts := Options{
			Q:                q,
			Groups:           1 + rng.Intn(4),
			UTheta:           0.001 + rng.Float64()*0.01,
			UPhi:             0.002 + rng.Float64()*0.02,
			DisableRadialOpt: rng.Intn(2) == 0,
		}
		idx := make([]int32, len(pc))
		for i := range idx {
			idx[i] = int32(i)
		}
		enc, err := Encode(pc, idx, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(enc.DecodedOrder)+len(enc.OutlierIdx) != len(pc) {
			t.Fatalf("trial %d: %d+%d != %d points", trial, len(enc.DecodedOrder), len(enc.OutlierIdx), len(pc))
		}
		dec, err := Decode(enc.Data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(dec) != len(enc.DecodedOrder) {
			t.Fatalf("trial %d: decoded %d, order %d", trial, len(dec), len(enc.DecodedOrder))
		}
		bound := math.Sqrt(3) * q * 1.000001
		for j, oi := range enc.DecodedOrder {
			if d := pc[oi].Dist(dec[j]); d > bound {
				t.Fatalf("trial %d: point %d error %v > %v (q=%v groups=%d plain=%v)",
					trial, oi, d, bound, q, opts.Groups, opts.DisableRadialOpt)
			}
		}
	}
}

// TestPropertyDeterministic: compressing the same input twice yields
// identical bytes (required for the decoder-replay design).
func TestPropertyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pc := randomScanCloud(rng)
	idx := make([]int32, len(pc))
	for i := range idx {
		idx[i] = int32(i)
	}
	opts := Options{Q: 0.02, Groups: 3, UTheta: 0.003, UPhi: 0.007}
	a, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(pc, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Data) != string(b.Data) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestPropertyQuantizer: quantize/dequantize stays within the bound for
// arbitrary spherical inputs.
func TestPropertyQuantizer(t *testing.T) {
	f := func(theta, phi, r, qRaw, rmaxRaw float64) bool {
		q := 0.0005 + math.Abs(math.Mod(qRaw, 0.1))
		rmax := 1 + math.Abs(math.Mod(rmaxRaw, 200))
		s := geom.Spherical{
			Theta: math.Abs(math.Mod(theta, 2*math.Pi)),
			Phi:   math.Abs(math.Mod(phi, math.Pi)),
			R:     math.Abs(math.Mod(r, rmax)),
		}
		qz := NewQuantizer(q, rmax)
		tq, pq, rq := qz.Quantize(s)
		back := qz.Dequantize(tq, pq, rq)
		// Per-dimension quantization errors within the scaled bounds.
		return math.Abs(back.Theta-s.Theta) <= qz.QTheta*1.0001 &&
			math.Abs(back.Phi-s.Phi) <= qz.QPhi*1.0001 &&
			math.Abs(back.R-s.R) <= qz.QR*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCartesianQuantizer mirrors the check for -Conversion mode.
func TestPropertyCartesianQuantizer(t *testing.T) {
	f := func(x, y, z, qRaw float64) bool {
		q := 0.0005 + math.Abs(math.Mod(qRaw, 0.1))
		p := geom.Point{X: math.Mod(x, 150), Y: math.Mod(y, 150), Z: math.Mod(z, 30)}
		cq := cartesianQuantizer{q: q}
		tx, ty, tz := cq.Quantize(p)
		back := cq.Dequantize(tx, ty, tz)
		return back.ChebDist(p) <= q*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeltaInts: deltaInts/undeltaInts are inverses for bounded
// magnitudes.
func TestPropertyDeltaInts(t *testing.T) {
	f := func(vs []int32) bool {
		in := make([]int64, len(vs))
		for i, v := range vs {
			in[i] = int64(v)
		}
		out := undeltaInts(deltaInts(slices.Clone(in)))
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRefsRoundTrip: the 4-symbol reference stream codec is
// lossless for arbitrary symbol sequences.
func TestPropertyRefsRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		refs := make([]byte, len(raw))
		for i, b := range raw {
			refs[i] = b % refAlphabet
		}
		codec := streamcodec.Refs.Own()
		dec, err := streamcodec.DecodeCodes(nil, codec, streamcodec.AppendCodes(nil, codec, refs, refAlphabet), len(refs), refAlphabet, nil)
		return err == nil && bytes.Equal(dec, refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeflate: the θ streams' DEFLATE coding is lossless.
func TestPropertyDeflate(t *testing.T) {
	codec := streamcodec.ThetaTails.Own()
	f := func(vs []int64) bool {
		out, err := streamcodec.DecodeInts(nil, codec, streamcodec.AppendInts(nil, codec, vs), len(vs), nil)
		return err == nil && slices.Equal(out, vs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
