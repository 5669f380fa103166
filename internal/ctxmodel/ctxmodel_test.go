package ctxmodel

import (
	"errors"
	"math/rand"
	"testing"

	"dbgc/internal/declimits"
)

func TestReflectInvolution(t *testing.T) {
	for o := uint8(0); o < 8; o++ {
		for c := 0; c < 256; c++ {
			if got := Reflect(Reflect(byte(c), o), o); got != byte(c) {
				t.Fatalf("Reflect(Reflect(%#x, %d)) = %#x", c, o, got)
			}
		}
	}
	// Reflection permutes bits, so popcount is invariant.
	if Reflect(0x01, 1) != 0x02 || Reflect(0x01, 7) != 0x80 {
		t.Fatalf("reflection axes wrong: %#x %#x", Reflect(0x01, 1), Reflect(0x01, 7))
	}
}

func TestIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 100, 5000} {
		vs := make([]int64, n)
		for i := range vs {
			switch rng.Intn(3) {
			case 0:
				vs[i] = int64(rng.Intn(7)) - 3
			case 1:
				vs[i] = int64(rng.Intn(2000)) - 1000
			default:
				vs[i] = rng.Int63() - rng.Int63()
			}
		}
		stream := AppendIntsCtx(nil, vs)
		got, err := DecodeIntsCtx(nil, stream, n, nil)
		if err != nil {
			t.Fatalf("n %d: %v", n, err)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("n %d: value %d = %d, want %d", n, i, got[i], vs[i])
			}
		}
	}
}

func TestDecodeIntsCorrupt(t *testing.T) {
	vs := []int64{1, -2, 300, -40000, 5}
	stream := AppendIntsCtx(nil, vs)
	for l := 0; l < len(stream); l++ {
		if _, err := DecodeIntsCtx(nil, stream[:l], len(vs), nil); err == nil {
			t.Errorf("truncated at %d: want error", l)
		}
	}
	b := declimits.New(declimits.Limits{MaxContexts: 4})
	if _, err := DecodeIntsCtx(nil, stream, len(vs), b); err == nil {
		t.Error("MaxContexts 4: want error")
	}
	if _, err := DecodeIntsCtx(nil, append(stream[:len(stream):len(stream)], 0), len(vs), nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a trailing byte: %v, want ErrCorrupt", err)
	}
	for _, shards := range []byte{0, 2} {
		bad := append([]byte{shards}, stream[1:]...)
		if _, err := DecodeIntsCtx(nil, bad, len(vs), nil); !errors.Is(err, ErrShardCount) {
			t.Errorf("%d shards: %v, want ErrShardCount", shards, err)
		}
	}
}

// TestBankSeeding checks the snapshot-seeding lockstep directly: symbols
// coded through a bank under a context sequence decode back identically.
func TestBankSeeding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := make([]int, 4096)
	ctxs := make([]int, len(syms))
	for i := range syms {
		syms[i] = rng.Intn(256)
		ctxs[i] = rng.Intn(8)
	}
	// Import cycle keeps the arith coder here; exercise via the public API.
	stream := func() []byte {
		vs := make([]int64, len(syms))
		for i, s := range syms {
			vs[i] = int64(s - 128)
		}
		return AppendIntsCtx(nil, vs)
	}()
	got, err := DecodeIntsCtx(nil, stream, len(syms), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range syms {
		if got[i] != int64(s-128) {
			t.Fatalf("symbol %d: got %d want %d", i, got[i], s-128)
		}
	}
}

// TestBankPooling: after warmup, taking a bank from the pool and putting it
// back allocates nothing, so the coders that take one a stream do not
// rebuild its 1 KiB model tables every frame. Under the race detector
// sync.Pool drops puts at random, which the count would read as a leak.
func TestBankPooling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	PutBank(GetBank(8, 256))
	bankAllocs := testing.AllocsPerRun(50, func() {
		b := GetBank(8, 256)
		PutBank(b)
	})
	if bankAllocs != 0 {
		t.Errorf("GetBank/PutBank allocates %.1f objects/run, want 0", bankAllocs)
	}
}
