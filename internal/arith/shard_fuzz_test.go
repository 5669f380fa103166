package arith

import (
	"testing"

	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
)

// FuzzShardedStream hammers the sharded decoders (container v3 framing)
// with mutated shard headers and payloads under a decode budget. Run with
// `go test -fuzz=FuzzShardedStream ./internal/arith/`. Invariants: no
// panics, no decode past the node budget, and the shard-count cap always
// rejects streams declaring more shards than allowed.
func FuzzShardedStream(f *testing.F) {
	codes := shardTestCodes(4096, 256)
	f.Add(appendCodesSharded(nil, codes, 256, 4), uint32(4096))
	us := make([]uint64, 512)
	is := make([]int64, 512)
	for i := range us {
		us[i] = uint64(i * i)
		is[i] = int64(i) - 256
	}
	f.Add(appendUintsSharded(nil, us, 2), uint32(512))
	f.Add(appendIntsSharded(nil, is, 8), uint32(512))
	// Hostile headers: huge shard count, zero shards, lying lengths.
	f.Add([]byte{0xff, 0xff, 0x7f, 1, 2, 3}, uint32(100))
	f.Add([]byte{0}, uint32(1))
	f.Add([]byte{2, 0x7f, 0x7f, 1}, uint32(64))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		lim := declimits.Limits{MaxNodes: 1 << 16, MaxShards: 16, MemBudget: 16 << 20}
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() {
				if _, err := decodeCodesSharded(data, int(n), 256, declimits.New(lim)); err == nil {
					if int64(n) > lim.MaxNodes {
						t.Fatalf("decoded %d codes past the %d-node budget", n, lim.MaxNodes)
					}
				}
				_, _ = decodeUintsSharded(data, int(n), declimits.New(lim))
				_, _ = decodeIntsSharded(data, int(n), declimits.New(lim))
			})
		}
		// The framing parser itself must honor the shard cap.
		b := declimits.New(declimits.Limits{MaxShards: 2, MaxNodes: 1 << 16, MemBudget: 16 << 20})
		if shards, err := parseShards(data, b); err == nil && len(shards) > 2 {
			t.Fatalf("parseShards returned %d shards past the cap of 2", len(shards))
		}
	})
}
