package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "frames.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestPutGet(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	if err := s.Put(1, KindCompressed, []byte("frame-one")); err != nil {
		t.Fatal(err)
	}
	// The retired kind 2: the store keeps whatever kind byte it is given.
	if err := s.Put(2, 2, []byte("frame-two")); err != nil {
		t.Fatal(err)
	}
	if got, kind, err := s.Get(2); err != nil || kind != 2 || string(got) != "frame-two" {
		t.Fatalf("got %q kind %d, %v", got, kind, err)
	}
	got, kind, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindCompressed || string(got) != "frame-one" {
		t.Fatalf("got %q kind %d", got, kind)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, _, err := s.Get(99); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	s, path := tempStore(t)
	payloads := map[uint64][]byte{
		10: []byte("aaa"),
		20: bytes.Repeat([]byte{0xab}, 5000),
		30: {},
	}
	for seq, p := range payloads {
		if err := s.Put(seq, KindCompressed, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(payloads) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(payloads))
	}
	for seq, want := range payloads {
		got, _, err := s2.Get(seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %d bytes, want %d", seq, len(got), len(want))
		}
	}
}

func TestTornRecordTruncated(t *testing.T) {
	s, path := tempStore(t)
	if err := s.Put(1, KindCompressed, []byte("complete-record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, KindCompressed, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: chop the last record's payload.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-500); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("after torn write, Len = %d, want 1", s2.Len())
	}
	if _, _, err := s2.Get(1); err != nil {
		t.Fatalf("intact record lost: %v", err)
	}
	// The store must accept new appends after recovery.
	if err := s2.Put(3, KindCompressed, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s2.Get(3)
	if err != nil || string(got) != "post-crash" {
		t.Fatalf("post-crash append broken: %q %v", got, err)
	}
}

func TestCorruptPayloadTruncatedAtOpen(t *testing.T) {
	s, path := tempStore(t)
	if err := s.Put(7, KindCompressed, bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The rebuild scan verifies checksums, so the corrupt record is
	// dropped and truncated rather than indexed.
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := s2.Get(7); err != ErrNotFound {
		t.Fatalf("want ErrNotFound after truncation, got %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("corrupt record not truncated: size=%d err=%v", fi.Size(), err)
	}
}

func TestRebuildStopsAtMidFileCorruption(t *testing.T) {
	s, path := tempStore(t)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Put(seq, KindCompressed, bytes.Repeat([]byte{byte(seq)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	recordLen := int64(recordHeader + 200)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the middle record.
	raw[recordLen+recordHeader+50] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The scan stops at the first corrupt record: record 1 survives,
	// records 2 and 3 are discarded and the file is truncated.
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if got, _, err := s2.Get(1); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 200)) {
		t.Fatalf("record 1 damaged: %v", err)
	}
	for _, seq := range []uint64{2, 3} {
		if _, _, err := s2.Get(seq); err != ErrNotFound {
			t.Fatalf("Get(%d): want ErrNotFound, got %v", seq, err)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != recordLen {
		t.Fatalf("file size = %d, want %d (err=%v)", fi.Size(), recordLen, err)
	}
	// Appends must resume cleanly at the truncation point.
	if err := s2.Put(4, KindCompressed, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s2.Get(4); err != nil || string(got) != "after-recovery" {
		t.Fatalf("post-recovery append broken: %q %v", got, err)
	}
}

func TestCorruptionAfterOpenDetectedAtGet(t *testing.T) {
	// Corrupt the live file behind the store's back (bit rot after the
	// rebuild scan): Get must still catch it, in the payload by its checksum
	// and in any header field by the index entry — a rewritten sequence
	// number, kind or size leaves the checksum of the payload intact.
	for name, off := range map[string]int64{
		"payload": recordHeader + 10, "seq": 0, "kind": 8, "size": 9, "size high byte": 12, "crc": 13,
	} {
		s, path := tempStore(t)
		if err := s.Put(7, KindCompressed, bytes.Repeat([]byte{7}, 100)); err != nil {
			t.Fatal(err)
		}
		if _, kind, err := s.Get(7); err != nil || kind != KindCompressed {
			t.Fatalf("%s: intact record: kind %d, %v", name, kind, err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0x02}, off); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, err := s.Get(7); err != ErrCorrupt {
			t.Fatalf("%s rewritten on disk: want ErrCorrupt, got %v", name, err)
		}
		s.Close()
	}
}

func TestSyncAndKind(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	if err := s.Put(1, KindQuarantined, []byte("bad-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if kind, ok := s.Kind(1); !ok || kind != KindQuarantined {
		t.Fatalf("Kind(1) = %d, %v", kind, ok)
	}
	if _, ok := s.Kind(2); ok {
		t.Fatal("Kind(2) reported a missing frame")
	}
	// A later good Put shadows the quarantined record.
	if err := s.Put(1, KindCompressed, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if kind, ok := s.Kind(1); !ok || kind != KindCompressed {
		t.Fatalf("after shadowing, Kind(1) = %d, %v", kind, ok)
	}
}

func TestOverwriteSameSeq(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	s.Put(5, KindCompressed, []byte("old"))
	s.Put(5, KindCompressed, []byte("new"))
	got, _, err := s.Get(5)
	if err != nil || string(got) != "new" {
		t.Fatalf("got %q, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestSeqs(t *testing.T) {
	s, _ := tempStore(t)
	defer s.Close()
	s.Put(3, KindCompressed, nil)
	s.Put(1, KindCompressed, nil)
	s.Put(2, KindCompressed, nil)
	if seqs := s.Seqs(); !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("Seqs = %v, want ascending 1 2 3", seqs)
	}
}
