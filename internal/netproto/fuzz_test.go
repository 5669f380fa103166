package netproto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzRead hammers the frame decoder with arbitrary byte streams —
// truncated headers, oversized lengths, checksum flips — mirroring the
// codec fuzz tests. It must never panic, never allocate beyond
// MaxFrameSize, and anything it accepts must re-encode to an identical
// frame.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range []Message{
		{Kind: KindCompressed, Seq: 7, Payload: []byte("seed-payload")},
		{Kind: KindBye, Seq: 1},
		Ack(42),
		Nack(43, "checksum"),
	} {
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
		buf.Reset()
	}
	// Truncated header.
	Write(&buf, Message{Kind: KindQueryResult, Seq: 2, Payload: []byte("abcdef")})
	full := append([]byte(nil), buf.Bytes()...)
	f.Add(full[:headerSize])
	f.Add(full[:5])
	// Flipped payload byte (header still valid).
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	// Oversized length claim.
	huge := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(huge[10:], MaxFrameSize+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Read(bytes.NewReader(b))
		if len(m.Payload) > MaxFrameSize {
			t.Fatalf("payload of %d bytes exceeds MaxFrameSize", len(m.Payload))
		}
		// The checksum Read accumulates a chunk at a time is the checksum of
		// the payload: accepted when the header's matches it, ErrChecksum,
		// with the payload, when it does not.
		if err == nil || err == ErrChecksum {
			whole := crc32.Checksum(m.Payload, castagnoli) == binary.LittleEndian.Uint32(b[14:])
			if whole != (err == nil) || len(m.Payload) != int(binary.LittleEndian.Uint32(b[10:])) {
				t.Fatalf("Read returns %v for %d payload bytes whose checksum matches the header's: %v", err, len(m.Payload), whole)
			}
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, m); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		m2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded frame: %v", err)
		}
		if m2.Kind != m.Kind || m2.Seq != m.Seq || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", m, m2)
		}
	})
}
