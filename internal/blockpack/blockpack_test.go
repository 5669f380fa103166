package blockpack

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbgc/internal/declimits"
)

func roundTripUint64(t *testing.T, vs []uint64) {
	t.Helper()
	data := PackUint64(nil, vs)
	got, err := UnpackUint64(data, len(vs), nil)
	if err != nil {
		t.Fatalf("UnpackUint64(%d values): %v", len(vs), err)
	}
	if len(got) != len(vs) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vs))
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestRoundTripShapes(t *testing.T) {
	shapes := map[string][]uint64{
		"empty":     nil,
		"single":    {42},
		"partial":   make([]uint64, 127),
		"one-block": make([]uint64, 128),
		"spill":     make([]uint64, 129),
		"large":     make([]uint64, 5000),
	}
	rng := rand.New(rand.NewSource(1))
	for name, vs := range shapes {
		for i := range vs {
			vs[i] = uint64(rng.Intn(1 << 12))
		}
		t.Run(name, func(t *testing.T) { roundTripUint64(t, vs) })
	}
}

func TestRoundTripDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gen := map[string]func() uint64{
		"zero":      func() uint64 { return 0 },
		"constant":  func() uint64 { return 7 },
		"tiny":      func() uint64 { return uint64(rng.Intn(4)) },
		"max":       func() uint64 { return math.MaxUint64 },
		"widths":    func() uint64 { return uint64(1)<<uint(rng.Intn(64)) - 1 },
		"geometric": func() uint64 { return uint64(rng.ExpFloat64() * 100) },
		// Mostly small with rare huge values — the PFOR exception case.
		"patched": func() uint64 {
			if rng.Intn(100) == 0 {
				return rng.Uint64()
			}
			return uint64(rng.Intn(32))
		},
	}
	for name, g := range gen {
		t.Run(name, func(t *testing.T) {
			vs := make([]uint64, 700)
			for i := range vs {
				vs[i] = g()
			}
			roundTripUint64(t, vs)
		})
	}
}

func TestRoundTripInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vs := make([]int64, 999)
	for i := range vs {
		vs[i] = int64(rng.Intn(2000)) - 1000
	}
	vs[0] = math.MinInt64
	vs[1] = math.MaxInt64
	data := PackInt64(nil, vs)
	got, err := UnpackInt64(data, len(vs), nil)
	if err != nil {
		t.Fatalf("UnpackInt64: %v", err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestRoundTripUint32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := make([]uint32, 300)
	for i := range vs {
		vs[i] = rng.Uint32()
	}
	data := PackUint32(nil, vs)
	got, err := UnpackUint32(data, len(vs), nil)
	if err != nil {
		t.Fatalf("UnpackUint32: %v", err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vs[i])
		}
	}
	// A 64-bit stream whose values overflow uint32 must be rejected.
	wide := PackUint64(nil, []uint64{1 << 40})
	if _, err := UnpackUint32(wide, 1, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing stream: got %v, want ErrCorrupt", err)
	}
}

func TestRoundTripDelta(t *testing.T) {
	vs := make([]uint64, 1000)
	acc := uint64(0)
	rng := rand.New(rand.NewSource(5))
	for i := range vs {
		acc += uint64(rng.Intn(50))
		vs[i] = acc
	}
	data := PackDeltaUint64(nil, vs)
	got, err := UnpackDeltaUint64(data, len(vs), nil)
	if err != nil {
		t.Fatalf("UnpackDeltaUint64: %v", err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vs[i])
		}
	}
	// Delta coding a sorted ramp must beat plain coding.
	if plain := PackUint64(nil, vs); len(data) >= len(plain) {
		t.Fatalf("delta coding (%d bytes) should beat plain (%d bytes) on a ramp", len(data), len(plain))
	}
}

func TestConstantBlockIsTwoBytes(t *testing.T) {
	vs := make([]uint64, BlockSize)
	data := PackUint64(nil, vs)
	if len(data) != 2 {
		t.Fatalf("all-zero block packed to %d bytes, want 2", len(data))
	}
}

func TestExceptionsKeepBlockNarrow(t *testing.T) {
	// 127 tiny values and one huge one: patching must beat coding the whole
	// block at 64 bits.
	vs := make([]uint64, BlockSize)
	for i := range vs {
		vs[i] = uint64(i % 8)
	}
	vs[77] = math.MaxUint64
	data := PackUint64(nil, vs)
	wide := 2 + payloadBytes(BlockSize, 64)
	if len(data) >= wide {
		t.Fatalf("patched block is %d bytes, not smaller than the %d-byte wide coding", len(data), wide)
	}
	roundTripUint64(t, vs)
}

func TestShardedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vs := make([]uint64, 3000)
	for i := range vs {
		vs[i] = uint64(rng.Intn(1 << 20))
	}
	is := make([]int64, len(vs))
	for i, v := range vs {
		is[i] = int64(v) - 1<<19
	}
	for _, shards := range []int{1, 2, 7} {
		got, err := UnpackUint64Sharded(PackUint64Sharded(nil, vs, shards), len(vs), nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("shards=%d: value %d mismatch", shards, i)
			}
		}
		gotI, err := UnpackInt64Sharded(PackInt64Sharded(nil, is, shards), len(is), nil)
		if err != nil {
			t.Fatalf("int64 shards=%d: %v", shards, err)
		}
		for i := range is {
			if gotI[i] != is[i] {
				t.Fatalf("int64 shards=%d: value %d mismatch", shards, i)
			}
		}
	}
}

func TestBudgetEnforced(t *testing.T) {
	vs := make([]uint64, 1000)
	data := PackUint64(nil, vs)
	b := declimits.New(declimits.Limits{MaxNodes: 100})
	if _, err := UnpackUint64(data, len(vs), b); !errors.Is(err, declimits.ErrLimit) {
		t.Fatalf("got %v, want ErrLimit past the node budget", err)
	}
	// The shard clamp needs >= 8192 elements per shard for the declared
	// count to survive, so use a big enough stream to really get 8 shards.
	big := make([]uint64, 8*8192)
	sharded := PackUint64Sharded(nil, big, 8)
	b = declimits.New(declimits.Limits{MaxShards: 4, MaxNodes: 1 << 20})
	if _, err := UnpackUint64Sharded(sharded, len(big), b); !errors.Is(err, declimits.ErrLimit) {
		t.Fatalf("got %v, want ErrLimit past the shard cap", err)
	}
}

func TestCorruptStreams(t *testing.T) {
	vs := make([]uint64, 200)
	for i := range vs {
		vs[i] = uint64(i)
	}
	good := PackUint64(nil, vs)
	cases := map[string][]byte{
		"empty":            {},
		"header-only":      good[:1],
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte(nil), good...), 0xAA),
		"width-65":         {65, 0},
		"excs-past-block":  {0, 129},
		"positions-short":  {3, 2, 5},
		"positions-order":  {3, 2, 9, 4, 0, 0, 1, 1, 0, 0},
		"position-at-len":  {3, 1, 200, 0, 1, 0},
		"ctrl-truncated":   {3, 4, 0, 1, 2, 3},
		"values-truncated": {3, 1, 0, 3, 1},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := UnpackUint64(data, len(vs), nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
	if _, err := UnpackUint64(good, -1, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("negative count: got %v, want ErrCorrupt", err)
	}
}

func TestPropertyRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(600)
		vs := make([]uint64, n)
		shift := uint(rng.Intn(64))
		for i := range vs {
			vs[i] = rng.Uint64() >> shift
		}
		roundTripUint64(t, vs)
	}
}
