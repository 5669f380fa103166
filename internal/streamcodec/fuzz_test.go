package streamcodec

import (
	"errors"
	"testing"

	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
	"dbgc/internal/varint"
)

// FuzzDecode feeds arbitrary bytes, with an arbitrary element count, to
// every (element type, codec) pair under a decode budget, at GOMAXPROCS 1
// and 2. Run with `go test -fuzz=FuzzDecode ./internal/streamcodec`.
// Invariants: no panic; a decode that succeeds yields exactly n elements
// after what the destination held, within the node budget; and a
// context-modeled stream whose framing declares other than one shard — the
// retired sharded dialect — is refused as ErrRetiredDialect.
func FuzzDecode(f *testing.F) {
	vs := make([]int64, 300)
	us := make([]uint64, 300)
	codes := make([]byte, 300)
	for i := range vs {
		vs[i], us[i], codes[i] = int64(i%11)-5, uint64(i*i), byte(i%4)
	}
	for _, c := range []Codec{Arith, DeflateVarint, Ctx} {
		f.Add(AppendInts(nil, c, vs), uint32(len(vs)))
	}
	f.Add(AppendUints(nil, Arith, us), uint32(len(us)))
	f.Add(AppendCodes(nil, Arith, codes, 4), uint32(len(codes)))
	f.Add(AppendCodes(nil, Arith, codes, 16), uint32(len(codes)))
	f.Add(AppendCodes(nil, Arith, codes, 256), uint32(len(codes)))
	// The framing of the context coder, hostile and retired: huge shard
	// count, zero shards, lying lengths, a short and a long shard, and what
	// the sharded dialect wrote for two shards.
	ctx := AppendInts(nil, Ctx, vs)
	f.Add([]byte{0xff, 0xff, 0x7f, 1, 2, 3}, uint32(100))
	f.Add([]byte{0}, uint32(1))
	f.Add([]byte{2, 0x7f, 0x7f, 1}, uint32(64))
	f.Add([]byte{}, uint32(0))
	f.Add(ctx[:len(ctx)-1], uint32(len(vs)))
	f.Add(append(ctx[:len(ctx):len(ctx)], 0), uint32(len(vs)))
	lo, hi := ctxPayload(f, vs[:150]), ctxPayload(f, vs[150:])
	twoShards := varint.AppendUint([]byte{2}, uint64(len(lo)))
	twoShards = varint.AppendUint(twoShards, uint64(len(hi)))
	twoShards = append(append(twoShards, lo...), hi...)
	f.Add(twoShards, uint32(len(vs)))
	f.Add(varint.AppendUint(nil, 4096), uint32(len(vs)))
	f.Add([]byte{1, 0}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		lim := declimits.Limits{MaxNodes: 1 << 16, MaxContexts: 64, MemBudget: 16 << 20}
		check := func(what string, c Codec, elems int, err error) {
			if err == nil && (elems != 1+int(n) || int64(n) > lim.MaxNodes) {
				t.Fatalf("%s %v: %d elements and no error, asked for %d under a %d-node budget", what, c, elems-1, n, lim.MaxNodes)
			}
		}
		shards, _, countErr := varint.Uint(data)
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() {
				for _, c := range []Codec{Arith, DeflateVarint, Ctx} {
					out, err := DecodeInts(make([]int64, 1), c, data, int(n), declimits.New(lim))
					check("ints", c, len(out), err)
					if c == Ctx && countErr == nil && shards != 1 && int64(n) <= lim.MaxNodes && !errors.Is(err, ErrRetiredDialect) {
						t.Fatalf("a framing of %d shards: %v, want ErrRetiredDialect", shards, err)
					}
				}
				out, err := DecodeUints(make([]uint64, 1), Arith, data, int(n), declimits.New(lim))
				check("uints", Arith, len(out), err)
				codes, err := DecodeCodes(make([]byte, 1), Arith, data, int(n), 16, declimits.New(lim))
				check("codes", Arith, len(codes), err)
			})
		}
	})
}
