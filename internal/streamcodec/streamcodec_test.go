package streamcodec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbgc/internal/arith"
	"dbgc/internal/blockpack"
	"dbgc/internal/ctxmodel"
	"dbgc/internal/declimits"
	"dbgc/internal/par/partest"
	"dbgc/internal/varint"
)

// The references: each codec as octree, quadtree, outlier and sparse spelled
// it before this package, one call per (dialect, element type) — the plain
// arith / blockpack / ctxmodel calls, the shard framing around the plain
// coder of a shard's elements (what arith.AppendCompress*Sharded and
// blockpack.Pack*Sharded were), and sparse's deflate over unpooled writers.

func refSharded[T any](vs []T, shards int, plain func([]byte, []T) []byte) []byte {
	return arith.AppendSharded(nil, len(vs), shards, func(lo, hi int, out []byte) []byte {
		return plain(out, vs[lo:hi])
	})
}

func refDeflate(t testing.TB, vs []int64) []byte {
	raw := varint.AppendInts(nil, vs)
	at := func(level int) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	best := at(flate.HuffmanOnly)
	if lz := at(5); len(lz) < len(best) {
		best = lz
	}
	return best
}

func refInts(t testing.TB, c Codec, vs []int64, shards int) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressInts(nil, vs)
	case ArithSharded:
		return refSharded(vs, shards, arith.AppendCompressInts)
	case DeflateVarint:
		return refDeflate(t, vs)
	case BlockPack:
		return blockpack.PackInt64(nil, vs)
	case BlockPackSharded:
		return refSharded(vs, shards, blockpack.PackInt64)
	default:
		return ctxmodel.AppendIntsCtx(nil, vs)
	}
}

func refUints(c Codec, vs []uint64, shards int) []byte {
	switch c {
	case Arith:
		return arith.AppendCompressUints(nil, vs)
	case ArithSharded:
		return refSharded(vs, shards, arith.AppendCompressUints)
	case BlockPack:
		return blockpack.PackUint64(nil, vs)
	default:
		return refSharded(vs, shards, blockpack.PackUint64)
	}
}

func refCodes(c Codec, codes []byte, alphabet, shards int) []byte {
	plain := func(dst, codes []byte) []byte {
		e, m := arith.NewEncoder(), arith.NewModel(alphabet)
		for _, code := range codes {
			e.Encode(m, int(code))
		}
		return append(dst, e.Finish()...)
	}
	if c == ArithSharded {
		return refSharded(codes, shards, plain)
	}
	return plain(nil, codes)
}

// retired reports whether c is one of the retired codecs, which take a
// shard count; the others ignore the suite's.
func retired(c Codec) bool { return c > Ctx }

// stream is one (element type, codec) pair of the suite behind one
// signature: encode n generated elements either way, decode under a budget,
// and say whether the decoded elements are the generated ones. refused, if
// set, returns what the retired sharded dialect wrote for the stream where
// that was other than its one-shard bytes, and nil elsewhere.
type stream struct {
	kind    string
	codec   Codec
	encode  func(t testing.TB, n, shards int) (got, ref []byte)
	decode  func(data []byte, n int, b *declimits.Budget) (elems int, same bool, err error)
	refused func(t testing.TB, n, shards int) []byte
}

// streams lists every pair the package codes. Values are what the real
// streams look like: small magnitudes with rare jumps.
func streams() []stream {
	ints := func(n int) []int64 {
		rng := rand.New(rand.NewSource(int64(n)))
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(rng.Intn(9)) - 4
			if rng.Intn(50) == 0 {
				vs[i] = rng.Int63n(1<<40) - 1<<39
			}
		}
		return vs
	}
	uints := func(n int) []uint64 {
		vs := make([]uint64, n)
		for i, v := range ints(n) {
			vs[i] = varint.Zigzag(v)
		}
		return vs
	}
	codes := func(n, alphabet int) []byte {
		rng := rand.New(rand.NewSource(int64(n)))
		vs := make([]byte, n)
		for i := range vs {
			vs[i] = byte(rng.Intn(alphabet) & rng.Intn(alphabet))
		}
		return vs
	}
	var out []stream
	for _, c := range []Codec{Arith, ArithSharded, DeflateVarint, BlockPack, BlockPackSharded, Ctx} {
		st := stream{kind: "ints", codec: c,
			encode: func(t testing.TB, n, shards int) ([]byte, []byte) {
				if retired(c) {
					return AppendRetiredInts(nil, c, ints(n), shards), refInts(t, c, ints(n), shards)
				}
				return AppendInts(nil, c, ints(n)), refInts(t, c, ints(n), shards)
			},
			decode: func(data []byte, n int, b *declimits.Budget) (int, bool, error) {
				vs, err := DecodeInts(nil, c, data, n, b)
				return len(vs), slices.Equal(vs, ints(n)), err
			}}
		if c == Ctx {
			st.refused = func(t testing.TB, n, shards int) []byte {
				if arith.ClampShards(shards, n) == 1 {
					return nil
				}
				return refSharded(ints(n), shards, func(dst []byte, vs []int64) []byte {
					return append(dst, ctxPayload(t, vs)...)
				})
			}
		}
		out = append(out, st)
	}
	for _, c := range []Codec{Arith, ArithSharded, BlockPack, BlockPackSharded} {
		out = append(out, stream{kind: "uints", codec: c,
			encode: func(_ testing.TB, n, shards int) ([]byte, []byte) {
				if retired(c) {
					return AppendRetiredUints(nil, c, uints(n), shards), refUints(c, uints(n), shards)
				}
				return AppendUints(nil, c, uints(n)), refUints(c, uints(n), shards)
			},
			decode: func(data []byte, n int, b *declimits.Budget) (int, bool, error) {
				vs, err := DecodeUints(nil, c, data, n, b)
				return len(vs), slices.Equal(vs, uints(n)), err
			}})
	}
	for _, alphabet := range []int{4, 16, 256} {
		for _, c := range []Codec{Arith, ArithSharded} {
			out = append(out, stream{kind: fmt.Sprintf("codes%d", alphabet), codec: c,
				encode: func(_ testing.TB, n, shards int) ([]byte, []byte) {
					if retired(c) {
						return AppendRetiredCodes(nil, c, codes(n, alphabet), alphabet, shards), refCodes(c, codes(n, alphabet), alphabet, shards)
					}
					return AppendCodes(nil, c, codes(n, alphabet), alphabet), refCodes(c, codes(n, alphabet), alphabet, shards)
				},
				decode: func(data []byte, n int, b *declimits.Budget) (int, bool, error) {
					vs, err := DecodeCodes(nil, c, data, n, alphabet, b)
					return len(vs), bytes.Equal(vs, codes(n, alphabet)), err
				}})
		}
	}
	return out
}

// limits admits the suite's largest stream and nothing much larger.
var limits = declimits.Limits{MaxNodes: 1 << 15, MaxShards: 8, MaxContexts: 64, MemBudget: 1 << 20}

// TestCodecs holds every (element type, codec) pair, at element counts on
// either side of a blockpack block and of the one-shard-per-8Ki clamp and
// at one and four shards, to three things: the stream decodes to its input;
// it is byte for byte what the call it replaced wrote, at GOMAXPROCS 1 and 4;
// and a truncated or bit-flipped copy of it, decoded under DecodeLimits,
// returns an error or exactly n elements — no panic, nothing past the
// budget — while limits below the stream's own refuse it as ErrLimit. Only
// the retired codecs take the shard count; the context coder writes one
// shard whatever it is, and refuses as ErrRetiredDialect the several shards
// the sharded dialect cut the same stream into.
func TestCodecs(t *testing.T) {
	for _, s := range streams() {
		for _, n := range []int{0, 1, 127, 128, 129, 8193, 2*8192 + 1} {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/n=%d/shards=%d", s.kind, s.codec, n, shards), func(t *testing.T) {
					var data []byte
					for _, procs := range []int{1, 4} {
						partest.At(procs, func() {
							got, ref := s.encode(t, n, shards)
							if !bytes.Equal(got, ref) {
								t.Fatalf("GOMAXPROCS %d: %d bytes, the replaced call writes %d other ones", procs, len(got), len(ref))
							}
							data = got
						})
					}
					if elems, same, err := s.decode(data, n, declimits.New(limits)); err != nil || !same {
						t.Fatalf("round trip: %d elements of %d, %v", elems, n, err)
					}
					if s.refused != nil {
						if old := s.refused(t, n, shards); old != nil {
							if _, _, err := s.decode(old, n, declimits.New(limits)); !errors.Is(err, ErrRetiredDialect) {
								t.Errorf("the sharded dialect's %d shards: %v, want ErrRetiredDialect", arith.ClampShards(shards, n), err)
							}
						}
					}
					if n > 1 { // a limit of 0 is no limit
						// Elements are charged as nodes; DeflateVarint charges
						// the bytes it may inflate to instead.
						tight := limits
						tight.MaxNodes, tight.MemBudget = int64(n)-1, 10*int64(n)-1
						if _, _, err := s.decode(data, n, declimits.New(tight)); !errors.Is(err, declimits.ErrLimit) {
							t.Errorf("MaxNodes %d, MemBudget %d: %v, want ErrLimit", tight.MaxNodes, tight.MemBudget, err)
						}
					}
					damaged := func(what string, bad []byte) {
						elems, _, err := s.decode(bad, n, declimits.New(limits))
						if err == nil && elems != n {
							t.Errorf("%s: %d elements and no error, want %d or an error", what, elems, n)
						}
					}
					step := len(data)/48 + 1
					for cut := 0; cut < len(data); cut += step {
						damaged(fmt.Sprintf("cut at %d", cut), data[:cut])
					}
					for at := 0; at < len(data); at += step {
						bad := bytes.Clone(data)
						bad[at] ^= 1 << (at % 8)
						damaged(fmt.Sprintf("flip at %d", at), bad)
					}
				})
			}
		}
	}
}

// TestDecodeIntsPrefix: every signed-integer codec returns at least the
// first keep integers of a stream, and exactly those where it can stop —
// the plain arithmetic and the context-modeled coders — while the budget
// pays for the whole stream whatever keep is.
func TestDecodeIntsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []Codec{Arith, DeflateVarint, Ctx} {
		for _, n := range []int{0, 1, 129, 8193, 2*8192 + 1} {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = int64(rng.Intn(9)) - 4
			}
			data := AppendInts(nil, c, vs)
			for _, keep := range []int{0, 1, n / 2, n - 1, n} {
				if keep < 0 || keep > n {
					continue
				}
				got, err := DecodeIntsPrefix([]int64{42}, c, data, n, keep, declimits.New(limits))
				if err != nil || len(got) < 1+keep || got[0] != 42 || !slices.Equal(got[1:1+keep], vs[:keep]) {
					t.Fatalf("%v n=%d keep=%d: %d integers, %v", c, n, keep, len(got), err)
				}
				if stops := c == Arith || c == Ctx; stops && len(got) != 1+keep || !stops && len(got) != 1+n {
					t.Fatalf("%v n=%d keep=%d: %d integers", c, n, keep, len(got)-1)
				}
				if n > 1 { // as in TestCodecs: nodes, or what DEFLATE may inflate to
					tight := limits
					tight.MaxNodes, tight.MemBudget = int64(n)-1, 10*int64(n)-1
					if _, err := DecodeIntsPrefix(nil, c, data, n, keep, declimits.New(tight)); !errors.Is(err, declimits.ErrLimit) {
						t.Fatalf("%v n=%d keep=%d under MaxNodes %d: %v, want ErrLimit", c, n, keep, tight.MaxNodes, err)
					}
				}
			}
			for _, keep := range []int{-1, n + 1} {
				if _, err := DecodeIntsPrefix(nil, c, data, n, keep, nil); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v n=%d keep=%d: %v, want ErrCorrupt", c, n, keep, err)
				}
			}
		}
	}
}

// ctxPayload returns the context coder's stream of vs without its one-shard
// framing.
func ctxPayload(t testing.TB, vs []int64) []byte {
	data := AppendInts(nil, Ctx, vs)
	if data[0] != 1 {
		t.Fatalf("context-modeled stream declares %d shards", data[0])
	}
	l, used, err := varint.Uint(data[1:])
	if err != nil || l != uint64(len(data)-1-used) {
		t.Fatalf("context-modeled stream's framing: length %d of %d bytes (%v)", l, len(data)-1-used, err)
	}
	return data[1+used:]
}

// TestRetiredShardCounts: the context coder writes the one-shard framing —
// 01, the payload's length, the payload — and a stream in that framing
// that declares any other shard count, which only the retired sharded
// dialect wrote, is refused as ErrRetiredDialect, in full and by prefix.
func TestRetiredShardCounts(t *testing.T) {
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = int64(i%13) - 6
	}
	half := len(vs) / 2
	one, two := ctxPayload(t, vs[:half]), ctxPayload(t, vs[half:])
	// What the sharded dialect wrote for two shards: the count, both
	// lengths, both payloads.
	sharded := varint.AppendUint([]byte{2}, uint64(len(one)))
	sharded = append(varint.AppendUint(sharded, uint64(len(two))), one...)
	sharded = append(sharded, two...)
	for name, data := range map[string][]byte{
		"0 shards":    {0, 0},
		"2 shards":    sharded,
		"4096 shards": varint.AppendUint(nil, 4096),
		"huge count":  {0xff, 0xff, 0xff, 0xff, 0x0f},
	} {
		if _, err := DecodeInts(nil, Ctx, data, len(vs), nil); !errors.Is(err, ErrRetiredDialect) {
			t.Errorf("%s: %v, want ErrRetiredDialect", name, err)
		}
		if _, err := DecodeIntsPrefix(nil, Ctx, data, len(vs), half, nil); !errors.Is(err, ErrRetiredDialect) {
			t.Errorf("%s, prefix: %v, want ErrRetiredDialect", name, err)
		}
	}
}

// TestAppendsToDestination: both directions extend what dst holds and leave
// it alone, the framed context coder included.
func TestAppendsToDestination(t *testing.T) {
	vs := make([]int64, 300)
	for i := range vs {
		vs[i] = int64(i%7) - 3
	}
	for _, c := range []Codec{Arith, DeflateVarint, Ctx} {
		data := AppendInts([]byte("head"), c, vs)
		if string(data[:4]) != "head" || !bytes.Equal(data[4:], AppendInts(nil, c, vs)) {
			t.Errorf("%v: AppendInts does not append", c)
		}
		got, err := DecodeInts([]int64{42, 43}, c, data[4:], len(vs), nil)
		if err != nil || len(got) != 2+len(vs) || got[0] != 42 || got[1] != 43 || !slices.Equal(got[2:], vs) {
			t.Errorf("%v: DecodeInts does not append (%v)", c, err)
		}
	}
}

// TestDialectTable spells the stream → coder table of §3.5 out once more,
// as the per-package switches this package replaced had it, and holds Own,
// Marked and Rivals to it: a marker names what it always named, and Rivals
// lists every marker whose coder no lower one names, so no coder twice.
func TestDialectTable(t *testing.T) {
	want := map[Class]Codec{
		Bulk: Arith, Occupancy: Arith, Lengths: Arith, ThetaHeads: DeflateVarint,
		ThetaTails: DeflateVarint, PhiHeads: Arith, Refs: Arith,
	}
	for c, codec := range want {
		if got := c.Own(); got != codec {
			t.Errorf("class %d: %v, want %v", c, got, codec)
		}
	}
	for _, c := range []Class{ThetaHeads, ThetaTails, Bulk} {
		for m, w := range [3]Codec{want[c], Arith, Ctx} {
			if got := c.Marked(m); got != w {
				t.Errorf("class %d marker %d: %v, want %v", c, m, got, w)
			}
		}
		wantRivals := []int{MarkOwn, MarkPlain, MarkCtx}
		if want[c] == Arith {
			wantRivals = []int{MarkOwn, MarkCtx}
		}
		if got := c.Rivals(); !slices.Equal(got, wantRivals) {
			t.Errorf("class %d rivals: %v, want %v", c, got, wantRivals)
		}
	}
}

// exactSmallest codes vs by every rival and returns the smallest coding's
// marker, ties to the lowest, and every rival's size.
func exactSmallest(c Class, vs []int64) (best int, sizes map[int]int) {
	sizes = map[int]int{}
	best = -1
	for _, m := range c.Rivals() {
		sizes[m] = len(AppendInts(nil, c.Marked(m), vs))
		if best < 0 || sizes[m] < sizes[best] {
			best = m
		}
	}
	return best, sizes
}

// chooserStreams are streams on either side of every choice the chooser
// makes, smallStream elements or more unless named small: the near-memoryless
// small deltas of a θ-tail stream, the same with the magnitude of one value
// predicting the next's (what the context coder is for), wide noise, a
// stream that changes regime halfway, and the degenerate ones.
func chooserStreams() map[string][]int64 {
	const n = 3 * 8192
	rng := rand.New(rand.NewSource(3))
	out := map[string][]int64{"empty": nil, "one": {-7}}
	gen := func(name string, n int, f func(i int) int64) {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = f(i)
		}
		out[name] = vs
	}
	gen("memoryless", n, func(int) int64 { return int64(rng.Intn(4)) - 1 })
	big := false
	gen("bursty", n, func(int) int64 {
		if rng.Intn(16) == 0 {
			big = !big
		}
		if big {
			return int64(rng.Intn(201)) - 100
		}
		return int64(rng.Intn(3)) - 1
	})
	gen("noise", n, func(int) int64 { return rng.Int63n(1<<20) - 1<<19 })
	gen("drift", n, func(i int) int64 { return int64(rng.Intn(3)) + int64(5*(i/(n/2))) })
	gen("runs", n, func(i int) int64 { return int64(i / 4096 % 2) })
	gen("constant", n, func(int) int64 { return 3 })
	gen("zero", n, func(int) int64 { return 0 })
	gen("alternating", n, func(i int) int64 { return (1 << 40) * int64(1-2*(i%2)) })
	gen("small memoryless", smallStream-1, func(int) int64 { return int64(rng.Intn(4)) - 1 })
	gen("small constant", 1000, func(int) int64 { return 3 })
	return out
}

// TestAppendSmallestInts: a stream is coded once — twice where DEFLATE,
// which has no price, had to be tried: on a stream that repeats itself or
// has under smallStream elements — and gets a rival within 1% (or four
// bytes) of the smallest; the smallest itself, then, wherever that is clear
// of the others. The bytes are the named rival's alone, appended, and the
// stream decodes to its values.
func TestAppendSmallestInts(t *testing.T) {
	for name, vs := range chooserStreams() {
		for _, c := range []Class{ThetaHeads, ThetaTails, Bulk} {
			got, marker, codings := AppendSmallestInts([]byte{0xAA}, c, vs)
			what := fmt.Sprintf("%s class %d", name, c)
			if !slices.Contains(c.Rivals(), marker) {
				t.Fatalf("%s: marker %d is none of %v", what, marker, c.Rivals())
			}
			if got[0] != 0xAA || !bytes.Equal(got[1:], AppendInts(nil, c.Marked(marker), vs)) {
				t.Errorf("%s: not marker %d's bytes appended", what, marker)
			}
			back, err := DecodeInts(nil, c.Marked(marker), got[1:], len(vs), nil)
			if err != nil || !slices.Equal(back, vs) {
				t.Errorf("%s: marker %d does not decode to the values (%v)", what, marker, err)
			}
			best, sizes := exactSmallest(c, vs)
			repeats := name == "runs" || name == "constant" || name == "zero" || name == "alternating" || name == "small constant"
			tried := c.Own() == DeflateVarint && (len(vs) < smallStream || repeats)
			if want := 1; codings != want && !(tried && codings == want+1) {
				t.Errorf("%s: %d codings of %d elements", what, codings, len(vs))
			}
			if marker != best && 100*sizes[marker] > 101*sizes[best] && sizes[marker] > sizes[best]+4 {
				t.Errorf("%s: marker %d, rivals are %v", what, marker, sizes)
			}
		}
	}
}

// TestPriceMatchesCoders: priceInts is what the two arithmetic coders write,
// to within 0.3% and the few bytes a coder takes to finish, on every stream
// of the chooser's suite — which holds the model constants copied here to
// internal/arith's, and the seeding of the context models to ctxmodel's —
// and ctxFraming is what the context coder's framing costs, to a byte.
func TestPriceMatchesCoders(t *testing.T) {
	for name, vs := range chooserStreams() {
		plain, ctx, _ := priceInts(vs)
		framing := len(AppendInts(nil, Ctx, vs)) - len(ctxPayload(t, vs))
		if framing < ctxFraming-1 || framing > ctxFraming+1 {
			t.Errorf("%s: the context coder's framing is %d bytes, priced at %d", name, framing, ctxFraming)
		}
		for _, coder := range []struct {
			name  string
			price float64
			bytes int
		}{
			{"plain", plain, len(AppendInts(nil, Arith, vs))},
			{"ctx", ctx, len(ctxPayload(t, vs))},
		} {
			if slack := 0.003*float64(coder.bytes) + 4; math.Abs(coder.price-float64(coder.bytes)) > slack {
				t.Errorf("%s, %s: priced %.1f bytes, coded %d", name, coder.name, coder.price, coder.bytes)
			}
		}
	}
}

// TestInflateBounded: a DeflateVarint stream that inflates past ten bytes an
// element is refused before it materializes, and the inflated bytes are
// charged to the memory budget up front.
func TestInflateBounded(t *testing.T) {
	bomb := AppendInts(nil, DeflateVarint, make([]int64, 1<<20))
	if len(bomb) > 4096 {
		t.Fatalf("bomb is %d bytes", len(bomb))
	}
	if _, err := DecodeInts(nil, DeflateVarint, bomb, 1000, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("1 MiB of zeros read as 1000 values: %v, want ErrCorrupt", err)
	}
	b := declimits.New(declimits.Limits{MemBudget: 1 << 20})
	if _, err := DecodeInts(nil, DeflateVarint, bomb, 1<<20, b); !errors.Is(err, declimits.ErrLimit) {
		t.Errorf("10 MiB bound under a 1 MiB budget: %v, want ErrLimit", err)
	}
}
