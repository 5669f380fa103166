package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"dbgc/internal/faultnet"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Kind: KindCompressed, Seq: 1, Payload: []byte("hello")},
		{Kind: KindQueryResult, Seq: 2, Payload: make([]byte, 100000)},
		{Kind: KindBye, Seq: 3, Payload: nil},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("got %+v, want %+v", got.Kind, want.Kind)
		}
	}
}

func TestChecksumDetection(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Message{Kind: KindCompressed, Seq: 9, Payload: []byte("payload-data")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-3] ^= 0xff // corrupt payload
	m, err := Read(bytes.NewReader(raw))
	if err != ErrChecksum {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
	// Framing survived: the header fields must still be usable so the
	// receiver can nack the frame by sequence number.
	if m.Kind != KindCompressed || m.Seq != 9 {
		t.Fatalf("corrupt frame lost its identity: kind=%d seq=%d", m.Kind, m.Seq)
	}
}

func TestHeaderCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Message{Kind: KindCompressed, Seq: 11, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < headerSize; off++ {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[off] ^= 0x10
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrHeader) {
			t.Fatalf("flip at header byte %d: want ErrHeader, got %v", off, err)
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	hdr := make([]byte, headerSize)
	hdr[0] = Version + 1
	hdr[1] = KindCompressed
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], crc32.Checksum(hdr[:hdrCRCOff], castagnoli))
	if _, err := Read(bytes.NewReader(hdr)); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestAckNackRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Ack(7)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Nack(8, "checksum")); err != nil {
		t.Fatal(err)
	}
	ack, err := Read(&buf)
	if err != nil || ack.Kind != KindAck || ack.Seq != 7 {
		t.Fatalf("ack = %+v, %v", ack, err)
	}
	nack, err := Read(&buf)
	if err != nil || nack.Kind != KindNack || nack.Seq != 8 || string(nack.Payload) != "checksum" {
		t.Fatalf("nack = %+v, %v", nack, err)
	}
}

func TestOversizeRejected(t *testing.T) {
	if err := Write(io.Discard, Message{Payload: make([]byte, MaxFrameSize+1)}); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// A forged header demanding too much (with a valid header checksum)
	// must be rejected before allocation.
	hdr := make([]byte, headerSize)
	hdr[0] = Version
	hdr[1] = KindCompressed
	binary.LittleEndian.PutUint32(hdr[10:], MaxFrameSize+1)
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], crc32.Checksum(hdr[:hdrCRCOff], castagnoli))
	if _, err := Read(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Message{Kind: KindCompressed, Seq: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d read successfully", cut)
		}
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		for {
			m, err := Read(conn)
			if err != nil {
				done <- err
				return
			}
			if m.Kind == KindBye {
				done <- nil
				return
			}
			// Echo back.
			if err := Write(conn, m); err != nil {
				done <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := Write(conn, Message{Kind: KindCompressed, Seq: 42, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	echo, err := Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if echo.Seq != 42 || !bytes.Equal(echo.Payload, payload) {
		t.Fatal("echo mismatch")
	}
	if err := Write(conn, Message{Kind: KindBye, Seq: 43}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBusyHintRoundTrip(t *testing.T) {
	m := NackBusy(42, 250*time.Millisecond, "tenant queue full")
	if m.Kind != KindNack || m.Seq != 42 {
		t.Fatalf("busy nack framed as %+v", m)
	}
	d, reason, ok := BusyHint(m.Payload)
	if !ok || d != 250*time.Millisecond || reason != "tenant queue full" {
		t.Fatalf("BusyHint = (%v, %q, %v)", d, reason, ok)
	}
	// Sub-millisecond hints round up so the sender always waits.
	d, _, ok = BusyHint(NackBusy(1, time.Microsecond, "x").Payload)
	if !ok || d < time.Millisecond {
		t.Fatalf("tiny hint = (%v, %v)", d, ok)
	}
	// Ordinary nacks carry no hint.
	if _, _, ok := BusyHint(Nack(1, "checksum").Payload); ok {
		t.Fatal("plain nack parsed as busy")
	}
	if _, _, ok := BusyHint([]byte("!busy notanumber x")); ok {
		t.Fatal("malformed hint parsed as busy")
	}
}

func TestHelloFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Hello("sensor-fleet_7")); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindHello || got.Seq != HelloSeq || string(got.Payload) != "sensor-fleet_7" {
		t.Fatalf("hello round trip: %+v", got)
	}
}

func TestValidTenant(t *testing.T) {
	good := []string{"a", "default", "tenant-01", "A.B_c-9"}
	for _, name := range good {
		if !ValidTenant(name) {
			t.Errorf("ValidTenant(%q) = false", name)
		}
	}
	bad := []string{"", ".hidden", "-flag", "has space", "has/slash", "über",
		string(make([]byte, MaxTenantLen+1))}
	for _, name := range bad {
		if ValidTenant(name) {
			t.Errorf("ValidTenant(%q) = true", name)
		}
	}
}

// writeLog records the length of every Write it is handed.
type writeLog struct{ lens []int }

func (w *writeLog) Write(p []byte) (int, error) {
	w.lens = append(w.lens, len(p))
	return len(p), nil
}

// loggedConn is a net.Conn that is not one of package net's own: what a
// fault-injecting or otherwise wrapped connection looks like to Write.
type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c loggedConn) Write(p []byte) (int, error) { return c.log.Write(p) }

// TestWriteCalls: a frame without a payload — every ack — is one Write, not
// a header and an empty second one; a frame with a payload reaches a writer
// that cannot gather as its header, then its payload, also through a
// faultnet-wrapped connection, whose fault schedule draws once per Write.
func TestWriteCalls(t *testing.T) {
	var w writeLog
	if err := Write(&w, Ack(7)); err != nil {
		t.Fatal(err)
	}
	if len(w.lens) != 1 || w.lens[0] != headerSize {
		t.Fatalf("an ack is written as %v, want one write of the %d-byte header", w.lens, headerSize)
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	for name, conn := range map[string]net.Conn{
		"wrapped":  loggedConn{client, &w},
		"faultnet": faultnet.New(faultnet.Config{Seed: 1}).Wrap(loggedConn{client, &w}),
	} {
		w.lens = nil
		if err := Write(conn, Nack(8, "checksum")); err != nil {
			t.Fatal(err)
		}
		if len(w.lens) != 2 || w.lens[0] != headerSize || w.lens[1] != len("checksum") {
			t.Fatalf("%s: a nack is written as %v, want header then payload", name, w.lens)
		}
	}
}

// TestReadDoesNotTrustDeclaredSize: a header alone cannot make Read allocate
// what it declares. A valid header claiming MaxFrameSize followed by nothing,
// or by a few bytes, costs a few MiB and an error; a frame larger than what
// is allocated up front still arrives whole, and its checksum still counts.
func TestReadDoesNotTrustDeclaredSize(t *testing.T) {
	hdr := make([]byte, headerSize)
	hdr[0] = Version
	hdr[1] = KindCompressed
	binary.LittleEndian.PutUint32(hdr[10:], MaxFrameSize)
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], crc32.Checksum(hdr[:hdrCRCOff], castagnoli))
	for _, sent := range []int{0, 100, readChunk + 1} {
		stream := append(bytes.Clone(hdr), make([]byte, sent)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Read(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil || errors.Is(err, ErrChecksum) || m.Payload != nil {
			t.Fatalf("%d of %d declared bytes sent: Read returns %d bytes, %v", sent, MaxFrameSize, len(m.Payload), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
			t.Fatalf("%d of %d declared bytes sent: Read allocated %d bytes", sent, MaxFrameSize, got)
		}
	}

	big := make([]byte, eagerPayload+3*readChunk+17)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Message{Kind: KindQueryResult, Seq: 5, Payload: big}); err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(buf.Bytes())
	if m, err := Read(&buf); err != nil || m.Seq != 5 || !bytes.Equal(m.Payload, big) {
		t.Fatalf("a %d-byte frame read back as %d bytes, %v", len(big), len(m.Payload), err)
	}
	raw[len(raw)-1] ^= 1 // in the last chunk, past what was allocated at once
	if m, err := Read(bytes.NewReader(raw)); err != ErrChecksum || m.Seq != 5 || len(m.Payload) != len(big) {
		t.Fatalf("a flipped last byte: %d bytes, seq %d, %v; want the message and ErrChecksum", len(m.Payload), m.Seq, err)
	}
}
