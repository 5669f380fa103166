package replica

import (
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	in := Record{
		Epoch: 3, Scrub: true, Tenant: "tenant07",
		Seq: 0xdeadbeefcafe, Kind: 2,
		End: 123456, Prev: 98765,
		CRC: 0xabad1dea, Payload: []byte("point cloud bits"),
	}
	out, err := DecodeRecord(EncodeRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRecordDecodeRejectsTruncation(t *testing.T) {
	full := EncodeRecord(Record{Epoch: 1, Tenant: "t", Seq: 9, End: 10, Payload: []byte("x")})
	// Any cut inside the fixed header must fail loudly, not panic.
	for cut := 0; cut < recordFixed; cut++ {
		if _, err := DecodeRecord(full[:cut]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d: got %v, want ErrMalformed", cut, err)
		}
	}
	if _, err := DecodeRecord(EncodeRecord(Record{Epoch: 1, Tenant: "", Seq: 1})); !errors.Is(err, ErrMalformed) {
		t.Fatal("empty tenant accepted")
	}
}

func TestHelloRoundTripAndValidation(t *testing.T) {
	for _, in := range []Hello{
		{Epoch: 0, Mode: ModeStream},
		{Epoch: 9, Mode: ModeDigest},
		{Epoch: 255, Mode: ModeManifest, Tenant: "tenant00"},
	} {
		out, err := DecodeHello(EncodeHello(in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: in %+v out %+v", in, out)
		}
	}
	if _, err := DecodeHello(EncodeHello(Hello{Mode: ModeManifest})); !errors.Is(err, ErrMalformed) {
		t.Fatal("manifest hello without tenant accepted")
	}
	if _, err := DecodeHello([]byte{0, 7, 0}); !errors.Is(err, ErrMalformed) {
		t.Fatal("unknown mode accepted")
	}
}

func TestWatermarksRoundTrip(t *testing.T) {
	in := map[string]int64{"tenant00": 0, "tenant01": 1 << 40, "x": 17}
	epoch, out, err := DecodeWatermarks(EncodeWatermarks(7, in))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: epoch %d, %v", epoch, out)
	}
}

func TestDigestsAndManifestRoundTrip(t *testing.T) {
	din := map[string]Digest{
		"a": {Count: 12, XorCRC: 0x1234},
		"b": {Count: 0, XorCRC: 0},
	}
	dout, err := DecodeDigests(EncodeDigests(din))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(din, dout) {
		t.Fatalf("digest mismatch: %v", dout)
	}
	min := []ManifestEntry{{Seq: 1, CRC: 2}, {Seq: 1 << 50, CRC: 0xffffffff}}
	mout, err := DecodeManifest(EncodeManifest(min))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(min, mout) {
		t.Fatalf("manifest mismatch: %v", mout)
	}
	if _, err := DecodeManifest(EncodeManifest(min)[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated manifest accepted")
	}
}

// TestDecodersSizeFromBytes: a watermark or digest response that declares
// 65535 entries and carries none is refused as ErrMalformed without a map
// sized for what it declares — under a kilobyte a decode, where a map for
// the declared count took megabytes.
func TestDecodersSizeFromBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"watermarks 00 ff ff", func() error { _, _, err := DecodeWatermarks([]byte{0x00, 0xff, 0xff}); return err }},
		{"digests ff ff", func() error { _, err := DecodeDigests([]byte{0xff, 0xff}); return err }},
	} {
		if err := c.decode(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: %v, want ErrMalformed", c.name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.decode()
			}
		})
		if got := res.AllocedBytesPerOp(); got >= 1024 {
			t.Errorf("%s: %d bytes allocated a decode, want under 1 KiB", c.name, got)
		}
	}
}

func TestMetaRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	// Missing file: zero meta, no error.
	m, err := LoadMeta(dir)
	if err != nil || m.Epoch != 0 || len(m.Watermarks) != 0 {
		t.Fatalf("fresh dir: %+v, %v", m, err)
	}
	want := Meta{Epoch: 5, Watermarks: map[string]int64{"tenant00": 4096, "tenant01": 0}}
	if err := SaveMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || !reflect.DeepEqual(got.Watermarks, want.Watermarks) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A corrupt file degrades to the zero meta (idempotent re-ship), never
	// to an error or a bogus watermark.
	if err := writeFileCorrupt(MetaPath(dir)); err != nil {
		t.Fatal(err)
	}
	got, err = LoadMeta(dir)
	if err != nil || got.Epoch != 0 || len(got.Watermarks) != 0 {
		t.Fatalf("corrupt meta: %+v, %v", got, err)
	}
}

func TestPromoteBumpsEpoch(t *testing.T) {
	dir := t.TempDir()
	if err := SaveMeta(dir, Meta{Epoch: 2, Watermarks: map[string]int64{"t": 9}}); err != nil {
		t.Fatal(err)
	}
	epoch, err := Promote(dir)
	if err != nil || epoch != 3 {
		t.Fatalf("promote: %d, %v", epoch, err)
	}
	m, err := LoadMeta(dir)
	if err != nil || m.Epoch != 3 || m.Watermarks["t"] != 9 {
		t.Fatalf("after promote: %+v, %v", m, err)
	}
}

// writeFileCorrupt flips a byte in the middle of the file.
func writeFileCorrupt(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[8] ^= 0x5a
	return os.WriteFile(path, raw, 0o644)
}
