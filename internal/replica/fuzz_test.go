package replica

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds the same bytes to every replication wire decoder — the
// payloads a follower reads from its primary and a primary from its
// follower. None may panic, and whatever one accepts must re-encode to bytes
// it decodes again to the same value. Values are compared, not bytes:
// EncodeWatermarks and EncodeDigests iterate a map, and a decoder ignores
// flag bits and trailing bytes it has no use for.
func FuzzDecode(f *testing.F) {
	f.Add(EncodeRecord(Record{Epoch: 3, Scrub: true, Tenant: "tenant07", Seq: 9, Kind: 1,
		End: 4096, Prev: 2048, CRC: 0xabad1dea, Payload: []byte("point cloud bits")}))
	f.Add(EncodeHello(Hello{Epoch: 1, Mode: ModeStream}))
	f.Add(EncodeHello(Hello{Epoch: 2, Mode: ModeManifest, Tenant: "tenant00"}))
	f.Add(EncodeWatermarks(7, map[string]int64{"tenant00": 0, "tenant01": 1 << 40}))
	f.Add(EncodeDigests(map[string]Digest{"a": {Count: 12, XorCRC: 0x1234}, "b": {}}))
	f.Add(EncodeManifest([]ManifestEntry{{Seq: 1, CRC: 2}, {Seq: 1 << 50, CRC: 0xffffffff}}))

	f.Fuzz(func(t *testing.T, p []byte) {
		// What a decoder returns never holds more entries than the input
		// has bytes.
		if _, wm, err := DecodeWatermarks(p); err == nil && len(wm) > len(p) {
			t.Fatalf("%d watermarks from %d bytes", len(wm), len(p))
		}
		if d, err := DecodeDigests(p); err == nil && len(d) > len(p) {
			t.Fatalf("%d digests from %d bytes", len(d), len(p))
		}
		if m, err := DecodeManifest(p); err == nil && len(m) > len(p) {
			t.Fatalf("%d manifest entries from %d bytes", len(m), len(p))
		}
		if r, err := DecodeRecord(p); err == nil {
			again, err := DecodeRecord(EncodeRecord(r))
			if err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("record %+v re-decodes to %+v, %v", r, again, err)
			}
		}
		if h, err := DecodeHello(p); err == nil {
			again, err := DecodeHello(EncodeHello(h))
			if err != nil || again != h {
				t.Fatalf("hello %+v re-decodes to %+v, %v", h, again, err)
			}
		}
		if epoch, wm, err := DecodeWatermarks(p); err == nil {
			againEpoch, again, err := DecodeWatermarks(EncodeWatermarks(epoch, wm))
			if err != nil || againEpoch != epoch || !reflect.DeepEqual(again, wm) {
				t.Fatalf("watermarks %d %v re-decode to %d %v, %v", epoch, wm, againEpoch, again, err)
			}
		}
		if d, err := DecodeDigests(p); err == nil {
			again, err := DecodeDigests(EncodeDigests(d))
			if err != nil || !reflect.DeepEqual(again, d) {
				t.Fatalf("digests %v re-decode to %v, %v", d, again, err)
			}
		}
		if m, err := DecodeManifest(p); err == nil {
			again, err := DecodeManifest(EncodeManifest(m))
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("manifest of %d entries re-decodes to %d, %v", len(m), len(again), err)
			}
		}
	})
}
