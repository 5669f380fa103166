package radix

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSortAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		keys := make([]uint64, n)
		for i := range keys {
			switch trial % 3 {
			case 0:
				keys[i] = rng.Uint64()
			case 1:
				keys[i] = uint64(rng.Intn(16)) // heavy duplicates
			default:
				keys[i] = uint64(rng.Intn(1 << 20)) // low bits only
			}
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		Sort(keys, nil, nil)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("trial %d: keys[%d] = %d, want %d", trial, i, keys[i], want[i])
			}
		}
	}
}

func TestSortStableWithPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Scratch
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(1500)
		keys := make([]uint64, n)
		payload := make([]int32, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(64)) // many ties to exercise stability
			payload[i] = int32(i)
		}
		orig := append([]uint64(nil), keys...)
		Sort(keys, payload, &s)
		if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
			t.Fatalf("trial %d: keys not sorted", trial)
		}
		for i := range keys {
			if orig[payload[i]] != keys[i] {
				t.Fatalf("trial %d: payload[%d] = %d does not match key %d", trial, i, payload[i], keys[i])
			}
		}
		// Stability: equal keys keep ascending payload order.
		for i := 1; i < n; i++ {
			if keys[i] == keys[i-1] && payload[i] < payload[i-1] {
				t.Fatalf("trial %d: unstable at %d", trial, i)
			}
		}
	}
}

func TestSortEdgeCases(t *testing.T) {
	Sort(nil, nil, nil)
	Sort([]uint64{7}, []int32{0}, nil)
	keys := []uint64{5, 5, 5}
	payload := []int32{0, 1, 2}
	Sort(keys, payload, nil)
	for i, p := range payload {
		if p != int32(i) {
			t.Fatalf("constant keys permuted payload: %v", payload)
		}
	}
}

// TestSortMatchesSliceStable holds Sort, keys and payload, to the standard
// library's stable sort on the key shapes the codec sorts and on the ones
// that stress the digit layout: fields with more distinct values than one
// digit holds, fields whose differing bits are separated by short and by
// long runs of equal bits, one differing field, one differing bit at either
// end of the word, and cell keys whose axis fields wrapped (a stray return
// beyond the 21 bits an axis has: the x field carries into bit 63, y into
// x, and a negative z sets every bit above it).
func TestSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pack := func(x, y, z int64) uint64 { return uint64(x<<42 | y<<21 | z) }
	shapes := map[string]func() uint64{
		"random":        rng.Uint64,
		"all equal":     func() uint64 { return 0xdeadbeef },
		"cell keys":     func() uint64 { return pack(rng.Int63n(3000)+5, rng.Int63n(2500)+5, rng.Int63n(400)+5) },
		"x only":        func() uint64 { return pack(rng.Int63n(1<<13), 77, 9) },
		"y only":        func() uint64 { return pack(3, rng.Int63n(1<<14), 9) },
		"z only":        func() uint64 { return pack(3, 77, rng.Int63n(1<<20)) },
		"wide fields":   func() uint64 { return pack(rng.Int63n(1<<20), rng.Int63n(1<<19), rng.Int63n(1<<21)) },
		"wrapped x":     func() uint64 { return pack(rng.Int63n(3000)+3<<20, rng.Int63n(2500), rng.Int63n(400)) },
		"wrapped y":     func() uint64 { return pack(rng.Int63n(3000), rng.Int63n(2500)+5<<20, rng.Int63n(400)) },
		"negative z":    func() uint64 { return pack(rng.Int63n(3000), rng.Int63n(2500), rng.Int63n(400)-200) },
		"float bits":    func() uint64 { return math.Float64bits(1 + 80*rng.Float64()) },
		"bit 0":         func() uint64 { return 0x5555_0000_aaaa_0000 | uint64(rng.Intn(2)) },
		"bit 63":        func() uint64 { return 0x5555_0000_aaaa_0000 ^ uint64(rng.Intn(2))<<63 },
		"bits 0 and 63": func() uint64 { return uint64(rng.Intn(2))<<63 | uint64(rng.Intn(2)) },
		"short gaps":    func() uint64 { return rng.Uint64() & 0x3333_3333_3333_3333 },
		"long gaps":     func() uint64 { return rng.Uint64() & 0xf000_0f00_00f0_000f },
	}
	var s Scratch
	for name, gen := range shapes {
		for _, n := range []int{2, 3, 100, 5000, 70000} {
			keys := make([]uint64, n)
			payload := make([]int32, n)
			type pair struct {
				k uint64
				p int32
			}
			want := make([]pair, n)
			for i := range keys {
				keys[i] = gen()
				payload[i] = int32(rng.Intn(n)) // not the identity: ties must keep input order, not payload order
				want[i] = pair{keys[i], payload[i]}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].k < want[b].k })
			bare := append([]uint64(nil), keys...)
			Sort(keys, payload, &s)
			Sort(bare, nil, nil)
			for i, w := range want {
				if keys[i] != w.k || payload[i] != w.p || bare[i] != w.k {
					t.Fatalf("%s n=%d: position %d holds (%#x, %d) and %#x without payload, want (%#x, %d)", name, n, i, keys[i], payload[i], bare[i], w.k, w.p)
				}
			}
		}
	}
}

// TestDigitsCoverDifferingBits: the passes cover every differing bit once,
// in ascending order, none wider than maxDigitBits.
func TestDigitsCoverDifferingBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		diff := rng.Uint64()
		for k := rng.Intn(4); k > 0; k-- {
			diff &= rng.Uint64() // sparser masks, down to a few bits
		}
		switch trial {
		case 0:
			diff = ^uint64(0)
		case 1:
			diff = 0x1111_1111_1111_1111 // the most fields a word holds
		}
		var covered uint64
		next := uint(0)
		ds := digits(nil, diff)
		if len(ds) > maxDigits {
			t.Fatalf("diff %#x: %d passes, more than maxDigits", diff, len(ds))
		}
		for _, d := range ds {
			if d.width < 1 || d.width > maxDigitBits || d.shift < next || d.shift+d.width > 64 {
				t.Fatalf("diff %#x: digit %+v after bit %d", diff, d, next)
			}
			covered |= (1<<d.width - 1) << d.shift
			next = d.shift + d.width
		}
		if diff&^covered != 0 {
			t.Fatalf("diff %#x: bits %#x are sorted on by no pass", diff, diff&^covered)
		}
	}
}

func BenchmarkSortPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	base := make([]uint64, 1<<17)
	for i := range base {
		base[i] = uint64(rng.Intn(1<<12))<<42 | uint64(rng.Intn(1<<12))<<21 | uint64(rng.Intn(1<<12))
	}
	keys := make([]uint64, len(base))
	payload := make([]int32, len(base))
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		for j := range payload {
			payload[j] = int32(j)
		}
		Sort(keys, payload, &s)
	}
}
