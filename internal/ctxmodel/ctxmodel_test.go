package ctxmodel

import (
	"bytes"
	"math/rand"
	"testing"

	"dbgc/internal/declimits"
)

// genOcc builds a random but structurally valid breadth-first occupancy
// sequence for an octree of the given depth, with branching thinned so the
// node count stays testable.
func genOcc(rng *rand.Rand, depth int) []byte {
	occ := []byte{}
	level := 1
	for d := 0; d < depth && level > 0; d++ {
		next := 0
		for i := 0; i < level; i++ {
			var code byte
			for code == 0 {
				code = byte(rng.Intn(256)) & byte(rng.Intn(256)) // skew sparse
				if code == 0 && rng.Intn(4) == 0 {
					code = 1 << uint(rng.Intn(8))
				}
			}
			occ = append(occ, code)
			if d+1 < depth {
				for c := 0; c < 8; c++ {
					if code&(1<<uint(c)) != 0 {
						next++
					}
				}
			}
		}
		level = next
	}
	return occ
}

func TestReflectInvolution(t *testing.T) {
	for o := uint8(0); o < 8; o++ {
		for c := 0; c < 256; c++ {
			if got := Reflect(Reflect(byte(c), o), o); got != byte(c) {
				t.Fatalf("Reflect(Reflect(%#x, %d)) = %#x", c, o, got)
			}
		}
	}
	// Reflection permutes bits, so popcount is invariant.
	if Reflect(0x01, 1) != 0x02 || Reflect(0x01, 7) != 0x80 {
		t.Fatalf("reflection axes wrong: %#x %#x", Reflect(0x01, 1), Reflect(0x01, 7))
	}
}

func TestFeatureContexts(t *testing.T) {
	cases := map[Features]int{
		0:                        1,
		FeatOctant:               1,
		FeatParent:               8,
		FeatSibling:              4,
		FeatDepth:                4,
		DefaultFeatures:          8,
		FeatAll:                  128,
		FeatParent | FeatSibling: 32,
	}
	for f, want := range cases {
		if got := f.Contexts(); got != want {
			t.Errorf("Features(%#x).Contexts() = %d, want %d", byte(f), got, want)
		}
	}
}

func TestOccRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feats := []Features{0, FeatOctant, DefaultFeatures, FeatParent | FeatSibling, FeatAll}
	for _, depth := range []int{1, 2, 4, 6} {
		occ := genOcc(rng, depth)
		for _, f := range feats {
			for _, shards := range []int{1, 4} {
				stream := AppendOcc(nil, occ, depth, f, shards)
				got, err := DecodeOcc(stream, len(occ), depth, nil)
				if err != nil {
					t.Fatalf("depth %d feats %#x shards %d: decode: %v", depth, byte(f), shards, err)
				}
				if !bytes.Equal(got, occ) {
					t.Fatalf("depth %d feats %#x shards %d: roundtrip mismatch", depth, byte(f), shards)
				}
			}
		}
	}
}

func TestOccEmpty(t *testing.T) {
	stream := AppendOcc(nil, nil, 0, DefaultFeatures, 1)
	got, err := DecodeOcc(stream, 0, 0, nil)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d codes from empty stream", len(got))
	}
}

func TestDecodeOccCorrupt(t *testing.T) {
	occ := genOcc(rand.New(rand.NewSource(1)), 4)
	stream := AppendOcc(nil, occ, 4, DefaultFeatures, 2)

	if _, err := DecodeOcc(nil, len(occ), 4, nil); err == nil {
		t.Error("empty stream: want error")
	}
	// Unknown feature bits.
	bad := append([]byte{0xf0}, stream[1:]...)
	if _, err := DecodeOcc(bad, len(occ), 4, nil); err == nil {
		t.Error("unknown feature bits: want error")
	}
	// Context count disagreeing with the feature mask.
	bad = append([]byte{stream[0], 0x7f}, stream[2:]...)
	if _, err := DecodeOcc(bad, len(occ), 4, nil); err == nil {
		t.Error("wrong context count: want error")
	}
	// Truncations at every prefix must error, never panic or hang.
	for l := 0; l < len(stream); l += 7 {
		if _, err := DecodeOcc(stream[:l], len(occ), 4, nil); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
	// A context-table budget below the bank size must refuse up front.
	b := declimits.New(declimits.Limits{MaxContexts: 2})
	if _, err := DecodeOcc(stream, len(occ), 4, b); err == nil {
		t.Error("MaxContexts 2: want error")
	}
}

func TestIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 100, 5000} {
		vs := make([]int64, n)
		for i := range vs {
			switch rng.Intn(3) {
			case 0:
				vs[i] = int64(rng.Intn(7)) - 3
			case 1:
				vs[i] = int64(rng.Intn(2000)) - 1000
			default:
				vs[i] = rng.Int63() - rng.Int63()
			}
		}
		for _, shards := range []int{1, 3} {
			stream := AppendIntsCtx(nil, vs, shards)
			got, err := DecodeIntsCtx(nil, stream, n, nil)
			if err != nil {
				t.Fatalf("n %d shards %d: %v", n, shards, err)
			}
			for i := range vs {
				if got[i] != vs[i] {
					t.Fatalf("n %d shards %d: value %d = %d, want %d", n, shards, i, got[i], vs[i])
				}
			}
		}
	}
}

func TestDecodeIntsCorrupt(t *testing.T) {
	vs := []int64{1, -2, 300, -40000, 5}
	stream := AppendIntsCtx(nil, vs, 1)
	for l := 0; l < len(stream); l++ {
		if _, err := DecodeIntsCtx(nil, stream[:l], len(vs), nil); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
	b := declimits.New(declimits.Limits{MaxContexts: 4})
	if _, err := DecodeIntsCtx(nil, stream, len(vs), b); err == nil {
		t.Error("MaxContexts 4: want error")
	}
}

// TestBankSeeding checks the snapshot-seeding lockstep directly: symbols
// coded through a bank under a context sequence decode back identically.
func TestBankSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 4096)
	ctxs := make([]int, len(syms))
	for i := range syms {
		syms[i] = rng.Intn(256)
		ctxs[i] = rng.Intn(8)
	}
	// Import cycle keeps the arith coder here; exercise via the public API.
	stream := func() []byte {
		vs := make([]int64, len(syms))
		for i, s := range syms {
			vs[i] = int64(s - 128)
		}
		return AppendIntsCtx(nil, vs, 2)
	}()
	got, err := DecodeIntsCtx(nil, stream, len(syms), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range syms {
		if got[i] != int64(s-128) {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], s-128)
		}
	}
}

// TestBankPooling bounds steady-state allocations of the pooled bank and
// replay scratch: after warmup, an occupancy encode/decode cycle must not
// allocate bank tables or replay arrays anew (the PR 2/5 scratch-reuse
// contract).
func TestBankPooling(t *testing.T) {
	occ := genOcc(rand.New(rand.NewSource(5)), 5)
	stream := AppendOcc(nil, occ, 5, DefaultFeatures, 2)
	dst := make([]byte, 0, 2*len(stream))
	// Warm the pools.
	for i := 0; i < 3; i++ {
		AppendOcc(dst[:0], occ, 5, DefaultFeatures, 2)
	}
	allocs := testing.AllocsPerRun(20, func() {
		AppendOcc(dst[:0], occ, 5, DefaultFeatures, 2)
	})
	// The shard framing allocates a few slice headers per encode; the
	// bound is that models/tables (1KiB+ each) are NOT rebuilt: with 9
	// fresh 257-entry tables per run this would exceed 25 allocations.
	if allocs > 16 {
		t.Errorf("AppendOcc allocates %.1f objects/run, want <= 16 (bank tables not pooled?)", allocs)
	}
	decAllocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeOcc(stream, len(occ), 5, nil); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 16 {
		t.Errorf("DecodeOcc allocates %.1f objects/run, want <= 16", decAllocs)
	}
	bankAllocs := testing.AllocsPerRun(50, func() {
		b := GetBank(8, 256)
		PutBank(b)
	})
	if bankAllocs != 0 {
		t.Errorf("GetBank/PutBank allocates %.1f objects/run, want 0", bankAllocs)
	}
}
