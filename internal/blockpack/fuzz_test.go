package blockpack

import (
	"testing"

	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
)

// FuzzBlockPack drives both directions of the codec: well-formed streams
// must round-trip exactly, and arbitrary bytes fed to the unpackers under a
// decode budget must never panic or decode past the budget. Run with
// `go test -fuzz=FuzzBlockPack ./internal/blockpack/`.
func FuzzBlockPack(f *testing.F) {
	small := []uint64{0, 1, 2, 3, 250, 251, 1 << 40, 4, 5}
	f.Add(PackUint64(nil, small), uint32(len(small)), uint8(0))
	ramp := make([]uint64, 300)
	for i := range ramp {
		ramp[i] = uint64(i * 7)
	}
	f.Add(PackUint64(nil, ramp), uint32(len(ramp)), uint8(0))
	f.Add(packSharded(ramp, 4, PackUint64), uint32(len(ramp)), uint8(1))
	steps := make([]int64, len(ramp))
	for i := range steps {
		steps[i] = 7
	}
	steps[0] = 0
	f.Add(PackInt64(nil, steps), uint32(len(steps)), uint8(0))
	// Hostile headers: absurd width, exception counts, empty payloads.
	f.Add([]byte{64, 128}, uint32(128), uint8(0))
	f.Add([]byte{65, 0}, uint32(1), uint8(0))
	f.Add([]byte{0xff, 0xff, 0x7f, 1, 2}, uint32(50), uint8(1))
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint32, mode uint8) {
		lim := declimits.Limits{MaxNodes: 1 << 16, MaxShards: 16, MemBudget: 16 << 20}
		if mode%2 == 0 {
			if out, err := UnpackUint64(nil, data, int(n), declimits.New(lim)); err == nil {
				if int64(n) > lim.MaxNodes {
					t.Fatalf("decoded %d values past the %d-node budget", n, lim.MaxNodes)
				}
				// A decodable stream must re-encode to a decodable stream of
				// the same values (not necessarily the same bytes: packing is
				// canonical, arbitrary input may not be).
				again, err := UnpackUint64(nil, PackUint64(nil, out), len(out), nil)
				if err != nil {
					t.Fatalf("repack failed: %v", err)
				}
				for i := range out {
					if again[i] != out[i] {
						t.Fatalf("repack changed value %d", i)
					}
				}
			}
			_, _ = UnpackInt64(nil, data, int(n), declimits.New(lim))
		} else {
			for _, procs := range []int{1, 2} {
				partest.At(procs, func() {
					if _, err := unpackSharded(data, int(n), declimits.New(lim), UnpackUint64); err == nil {
						if int64(n) > lim.MaxNodes {
							t.Fatalf("sharded decode of %d values past the node budget", n)
						}
					}
					_, _ = unpackSharded(data, int(n), declimits.New(lim), UnpackInt64)
				})
			}
		}
	})
}
