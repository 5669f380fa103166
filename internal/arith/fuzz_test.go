package arith

import (
	"testing"

	"dbgc/internal/declimits"
)

// FuzzDecompress drives the three adaptive-model decoders with mutated
// streams and hostile symbol counts under a decode budget; they must
// never panic and never decode more symbols than the budget allows.
func FuzzDecompress(f *testing.F) {
	f.Add(compressUints([]uint64{1, 2, 3, 1000, 0}), uint32(5))
	f.Add(compressInts([]int64{-4, 9, 0, 1 << 40}), uint32(4))
	f.Add(compressBytes([]byte("density-based geometry compression")), uint32(34))
	f.Add([]byte{}, uint32(1<<20))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		lim := declimits.Limits{MaxNodes: 1 << 18, MemBudget: 16 << 20}
		if _, err := decompressUints(data, int(n), declimits.New(lim)); err == nil && int64(n) > lim.MaxNodes {
			t.Fatalf("decoded %d uints past the %d-node budget", n, lim.MaxNodes)
		}
		_, _ = decompressInts(data, int(n), declimits.New(lim))
		_, _ = decompressBytes(data, int(n), declimits.New(lim))
	})
}
