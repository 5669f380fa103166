package arith

import (
	"bytes"
	"math/rand"
	"testing"

	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
)

func TestShardRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 100000} {
		for _, s := range []int{1, 2, 3, 8, 64} {
			prev := 0
			for i := 0; i < s; i++ {
				lo, hi := ShardRange(n, s, i)
				if lo != prev {
					t.Fatalf("n=%d s=%d shard %d: lo=%d want %d", n, s, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d s=%d shard %d: hi=%d < lo=%d", n, s, i, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d s=%d: shards cover %d elements", n, s, prev)
			}
		}
	}
}

func TestClampShards(t *testing.T) {
	cases := []struct{ shards, n, want int }{
		{0, 100000, 1},
		{-3, 100000, 1},
		{1, 0, 1},
		{8, 8 * minShardElems, 8},
		{16, 100000, 100000 / minShardElems},
		{8, 2 * minShardElems, 2},
		{8, minShardElems - 1, 1},
		{MaxShards + 1, 1 << 30, MaxShards},
	}
	for _, c := range cases {
		if got := ClampShards(c.shards, c.n); got != c.want {
			t.Errorf("ClampShards(%d, %d) = %d, want %d", c.shards, c.n, got, c.want)
		}
	}
}

func shardTestCodes(n, alphabet int) []byte {
	rng := rand.New(rand.NewSource(7))
	codes := make([]byte, n)
	for i := range codes {
		// Skewed distribution so the adaptive model has something to learn.
		codes[i] = byte(rng.Intn(alphabet) * rng.Intn(2))
	}
	return codes
}

func TestShardedCodesRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 50000} {
		codes := shardTestCodes(n, 256)
		for _, shards := range []int{1, 2, 4, 8} {
			buf := appendCodesSharded(nil, codes, 256, shards)
			got, err := decodeCodesSharded(buf, n, 256, nil)
			if err != nil {
				t.Fatalf("n=%d shards=%d: decode: %v", n, shards, err)
			}
			if !bytes.Equal(got, codes) {
				t.Fatalf("n=%d shards=%d: roundtrip mismatch", n, shards)
			}
		}
	}
}

// TestShardedWidthInvariant: the shard framing writes the same bytes and
// reads the same codes whatever GOMAXPROCS is.
func TestShardedWidthInvariant(t *testing.T) {
	codes := shardTestCodes(50000, 256)
	var want []byte
	for _, procs := range partest.Widths {
		partest.At(procs, func() {
			buf := appendCodesSharded(nil, codes, 256, 4)
			if want == nil {
				want = buf
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("GOMAXPROCS=%d: sharded encode differs from GOMAXPROCS=%d", procs, partest.Widths[0])
			}
			got, err := decodeCodesSharded(buf, len(codes), 256, nil)
			if err != nil || !bytes.Equal(got, codes) {
				t.Fatalf("GOMAXPROCS=%d: roundtrip: %v", procs, err)
			}
		})
	}
}

func TestShardedUintsIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30000
	us := make([]uint64, n)
	is := make([]int64, n)
	for i := range us {
		us[i] = uint64(rng.Intn(1 << 14))
		is[i] = int64(rng.Intn(1<<12)) - (1 << 11)
	}
	for _, shards := range []int{1, 2, 8} {
		ub := appendUintsSharded(nil, us, shards)
		gotU, err := decodeUintsSharded(ub, n, nil)
		if err != nil {
			t.Fatalf("shards=%d: uints: %v", shards, err)
		}
		for i := range us {
			if gotU[i] != us[i] {
				t.Fatalf("shards=%d: uint %d: got %d want %d", shards, i, gotU[i], us[i])
			}
		}
		ib := appendIntsSharded(nil, is, shards)
		gotI, err := decodeIntsSharded(ib, n, nil)
		if err != nil {
			t.Fatalf("shards=%d: ints: %v", shards, err)
		}
		for i := range is {
			if gotI[i] != is[i] {
				t.Fatalf("shards=%d: int %d: got %d want %d", shards, i, gotI[i], is[i])
			}
		}
	}
}

// TestShardedSingleMatchesLegacy pins the determinism contract: a sharded
// stream with one shard carries exactly the legacy single-coder payload
// after its 2-varint header.
func TestShardedSingleMatchesLegacy(t *testing.T) {
	codes := shardTestCodes(10000, 256)
	legacy := compressBytes(codes)
	sharded := appendCodesSharded(nil, codes, 256, 1)
	if len(sharded) < 2 || sharded[0] != 1 {
		t.Fatalf("expected shard count 1 header, got % x", sharded[:2])
	}
	// Strip "S=1" varint and the single length varint.
	rest := sharded[1:]
	i := 0
	for rest[i]&0x80 != 0 {
		i++
	}
	rest = rest[i+1:]
	if !bytes.Equal(rest, legacy) {
		t.Fatal("single-shard payload differs from legacy coder output")
	}
}

func TestShardedCorruptAndLimits(t *testing.T) {
	codes := shardTestCodes(8*minShardElems, 256) // large enough for all 8 shards to engage
	buf := appendCodesSharded(nil, codes, 256, 8)

	// Truncation anywhere must error, not panic.
	for _, cut := range []int{0, 1, 3, len(buf) / 2, len(buf) - 1} {
		if _, err := decodeCodesSharded(buf[:cut], len(codes), 256, nil); err == nil {
			t.Fatalf("truncated at %d: expected error", cut)
		}
	}

	// Trailing garbage after the declared shards must error.
	if _, err := decodeCodesSharded(append(append([]byte{}, buf...), 0xFF), len(codes), 256, nil); err == nil {
		t.Fatal("trailing bytes: expected error")
	}

	// Zero shard count is invalid.
	bad := append([]byte{0}, buf[1:]...)
	if _, err := decodeCodesSharded(bad, len(codes), 256, nil); err == nil {
		t.Fatal("zero shard count: expected error")
	}

	// A budget shard cap below the declared count must reject the stream.
	b := declimits.New(declimits.Limits{MaxShards: 4})
	if _, err := decodeCodesSharded(buf, len(codes), 256, b); err == nil {
		t.Fatal("MaxShards=4 against 8 shards: expected error")
	}

	// A node budget smaller than n must reject before allocating output.
	b = declimits.New(declimits.Limits{MaxNodes: 100})
	if _, err := decodeCodesSharded(buf, len(codes), 256, b); err == nil {
		t.Fatal("tiny node budget: expected error")
	}
}
