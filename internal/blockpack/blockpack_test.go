package blockpack

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dbgc/internal/arith"
	"dbgc/internal/declimits"
)

func roundTripUint64(t *testing.T, vs []uint64) {
	t.Helper()
	data := PackUint64(nil, vs)
	got, err := UnpackUint64(nil, data, len(vs), nil)
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
	got, err := UnpackInt64(nil, data, len(vs), nil)
	if err != nil {
		t.Fatalf("UnpackInt64: %v", err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vs[i])
		}
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

// packSharded and unpackSharded put a blockpacked stream inside the shard
// framing, one run of blocks per shard, as internal/streamcodec does.
func packSharded[T any](vs []T, shards int, pack func([]byte, []T) []byte) []byte {
	return arith.AppendSharded(nil, len(vs), shards, func(lo, hi int, out []byte) []byte {
		return pack(out, vs[lo:hi])
	})
}

func unpackSharded[T any](data []byte, n int, b *declimits.Budget, unpack func([]T, []byte, int, *declimits.Budget) ([]T, error)) ([]T, error) {
	if n < 0 {
		return nil, ErrCorrupt
	}
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	out := make([]T, n)
	err := arith.DecodeSharded(data, n, b, func(_ int, shard []byte, lo, hi int) error {
		_, err := unpack(out[lo:lo:hi], shard, hi-lo, nil)
		return err
	})
	return out, err
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
		got, err := unpackSharded(packSharded(vs, shards, PackUint64), len(vs), nil, UnpackUint64)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("shards=%d: value %d mismatch", shards, i)
			}
		}
		gotI, err := unpackSharded(packSharded(is, shards, PackInt64), len(is), nil, UnpackInt64)
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
	if _, err := UnpackUint64(nil, data, len(vs), b); !errors.Is(err, declimits.ErrLimit) {
		t.Fatalf("got %v, want ErrLimit past the node budget", err)
	}
	// The shard clamp needs >= 8192 elements per shard for the declared
	// count to survive, so use a big enough stream to really get 8 shards.
	big := make([]uint64, 8*8192)
	sharded := packSharded(big, 8, PackUint64)
	b = declimits.New(declimits.Limits{MaxShards: 4, MaxNodes: 1 << 20})
	if _, err := unpackSharded(sharded, len(big), b, UnpackUint64); !errors.Is(err, declimits.ErrLimit) {
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
			if _, err := UnpackUint64(nil, data, len(vs), nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
	if _, err := UnpackUint64(nil, good, -1, nil); !errors.Is(err, ErrCorrupt) {
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
