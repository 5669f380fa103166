package streamcodec

import (
	"testing"

	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
)

// FuzzDecode feeds arbitrary bytes, with an arbitrary element count, to
// every (element type, codec) pair under a decode budget, at GOMAXPROCS 1
// and 2. Run with `go test -fuzz=FuzzDecode ./internal/streamcodec`.
// Invariants: no panic; a decode that succeeds yields exactly n elements
// after what the destination held, within the node budget.
func FuzzDecode(f *testing.F) {
	vs := make([]int64, 300)
	us := make([]uint64, 300)
	codes := make([]byte, 300)
	for i := range vs {
		vs[i], us[i], codes[i] = int64(i%11)-5, uint64(i*i), byte(i%4)
	}
	for _, c := range []Codec{Arith, ArithSharded, DeflateVarint, BlockPack, BlockPackSharded, Ctx} {
		f.Add(AppendInts(nil, c, vs, 2), uint32(len(vs)))
	}
	for _, c := range []Codec{Arith, ArithSharded, BlockPack, BlockPackSharded} {
		f.Add(AppendUints(nil, c, us, 2), uint32(len(us)))
	}
	f.Add(AppendCodes(nil, Arith, codes, 4, 0), uint32(len(codes)))
	f.Add(AppendCodes(nil, ArithSharded, codes, 4, 2), uint32(len(codes)))
	// Hostile framing: huge shard count, zero shards, lying lengths.
	f.Add([]byte{0xff, 0xff, 0x7f, 1, 2, 3}, uint32(100))
	f.Add([]byte{0}, uint32(1))
	f.Add([]byte{2, 0x7f, 0x7f, 1}, uint32(64))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		lim := declimits.Limits{MaxNodes: 1 << 16, MaxShards: 16, MaxContexts: 64, MemBudget: 16 << 20}
		check := func(what string, c Codec, elems int, err error) {
			if err == nil && (elems != 1+int(n) || int64(n) > lim.MaxNodes) {
				t.Fatalf("%s %v: %d elements and no error, asked for %d under a %d-node budget", what, c, elems-1, n, lim.MaxNodes)
			}
		}
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() {
				for _, c := range []Codec{Arith, ArithSharded, DeflateVarint, BlockPack, BlockPackSharded, Ctx} {
					out, err := DecodeInts(make([]int64, 1), c, data, int(n), declimits.New(lim))
					check("ints", c, len(out), err)
				}
				for _, c := range []Codec{Arith, ArithSharded, BlockPack, BlockPackSharded} {
					out, err := DecodeUints(make([]uint64, 1), c, data, int(n), declimits.New(lim))
					check("uints", c, len(out), err)
				}
				for _, c := range []Codec{Arith, ArithSharded} {
					out, err := DecodeCodes(make([]byte, 1), c, data, int(n), 16, declimits.New(lim))
					check("codes", c, len(out), err)
				}
			})
		}
	})
}
