// Package netproto implements the client→server transfer of the DBGC
// system (Figure 2): compressed frames travel over a stream connection as
// length-prefixed, checksummed messages. The paper's prototype uses Linux
// sockets; this implementation works over any net.Conn.
//
// Wire format (protocol version 1): every message starts with a fixed
// header — version (1 byte) | kind (1) | sequence (8) | payload length (4)
// | crc32c of payload (4) | crc32c of the preceding 18 header bytes (4) —
// followed by the payload. The trailing header checksum lets a receiver
// distinguish a corrupt payload (framing intact: the frame can be nacked
// and the stream resumed) from a corrupt header (framing lost: the
// connection must be torn down and re-established).
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Version is the wire protocol version emitted by Write and required by
// Read. Bump it when the header layout or frame semantics change.
const Version byte = 1

// Frame kinds. Kind 2 (an uncompressed frame) is retired and never reused:
// a receiver answers it like any kind it does not know.
const (
	// KindCompressed carries a DBGC bit sequence B.
	KindCompressed byte = 1
	// KindBye asks the server to finish up.
	KindBye byte = 3
	// KindQuery asks the server for the points of a stored frame inside
	// a bounding box; the payload is EncodeQuery's.
	KindQuery byte = 4
	// KindQueryResult answers a query with a raw .bin-layout point list
	// (empty on a miss).
	KindQueryResult byte = 5
	// KindAck acknowledges that the frame with the same sequence number
	// was received, validated, and handled; the payload is empty.
	KindAck byte = 6
	// KindNack reports that the frame with the same sequence number was
	// received but rejected (checksum or decode failure); the payload is
	// a short human-readable reason. The sender should retransmit.
	// Overloaded receivers encode a machine-readable backpressure hint in
	// the reason (see NackBusy/BusyHint); senders honoring the hint wait
	// before retransmitting. A refusal no retransmit can change carries a
	// permanence hint instead (NackFinal/FinalHint): the sender gives the
	// frame up.
	KindNack byte = 7
	// KindHello identifies the sender at the start of a connection; the
	// payload is a tenant name (see ValidTenant). The receiver answers
	// with an Ack (admitted) or Nack (rejected — possibly a NackBusy with
	// a retry-after hint) carrying HelloSeq. A connection that sends data
	// without a hello is assigned the default tenant.
	KindHello byte = 8

	// Replication dialect (see internal/replica): a primary streams its
	// stores' records to a follower over these kinds. Every replication
	// payload starts with an epoch/term byte — promotions bump the epoch,
	// and a receiver refuses records from an older epoch so a deposed
	// primary cannot overwrite a promoted follower.

	// KindReplHello opens a replication exchange; the payload selects
	// stream, digest, or manifest mode (internal/replica encodes it). The
	// follower answers with a payload-carrying KindReplAck on HelloSeq,
	// or a Nack when the sender's epoch is stale.
	KindReplHello byte = 9
	// KindReplRecord carries one store record (tenant, seq, kind, CRC,
	// payload) plus the watermark chain fields; the follower verifies the
	// record CRC32-C, applies, makes it durable, then acks.
	KindReplRecord byte = 10
	// KindReplAck acknowledges an applied-and-durable replication record
	// (same Seq), or answers a KindReplHello with a payload (watermarks,
	// digests, or a manifest).
	KindReplAck byte = 11
)

// HelloSeq is the reserved sequence number carried by KindHello frames and
// their ack/nack responses, so admission traffic can never collide with a
// data frame's sequence number.
const HelloSeq = ^uint64(0)

// MaxTenantLen bounds a tenant name on the wire.
const MaxTenantLen = 64

// Hello builds a tenant-identification frame.
func Hello(tenant string) Message {
	return Message{Kind: KindHello, Seq: HelloSeq, Payload: []byte(tenant)}
}

// ValidTenant reports whether a tenant name is acceptable: 1..MaxTenantLen
// bytes of [a-zA-Z0-9._-] not starting with a dot or dash, so the name can
// double as a file name in a store directory.
func ValidTenant(name string) bool {
	if len(name) == 0 || len(name) > MaxTenantLen {
		return false
	}
	if name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// MaxFrameSize bounds a single message; a raw HDL-64E frame is ~1.6 MB, so
// 256 MB leaves room for any realistic capture while stopping corrupt
// headers from driving huge allocations.
const MaxFrameSize = 256 << 20

// ErrFrameTooLarge reports a header demanding more than MaxFrameSize.
var ErrFrameTooLarge = errors.New("netproto: frame exceeds size limit")

// ErrChecksum reports payload corruption. The header (and therefore the
// stream framing) is intact: Read returns the parsed message alongside
// this error so the caller can nack it by sequence number and keep
// reading.
var ErrChecksum = errors.New("netproto: checksum mismatch")

// ErrHeader reports header corruption; stream framing is lost and the
// connection should be closed.
var ErrHeader = errors.New("netproto: header checksum mismatch")

// ErrVersion reports a frame from an incompatible protocol version.
var ErrVersion = errors.New("netproto: unsupported protocol version")

// Header layout: version (1 byte) | kind (1) | sequence (8) | payload
// length (4) | crc32c of payload (4) | crc32c of header bytes [0,18) (4).
const headerSize = 1 + 1 + 8 + 4 + 4 + 4

// hdrCRCOff is the offset of the header checksum, which covers all bytes
// before it.
const hdrCRCOff = headerSize - 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Message is one protocol frame.
type Message struct {
	Kind    byte
	Seq     uint64
	Payload []byte
}

// Ack builds an acknowledgement for the frame with the given sequence
// number.
func Ack(seq uint64) Message { return Message{Kind: KindAck, Seq: seq} }

// Nack builds a negative acknowledgement carrying a short reason.
func Nack(seq uint64, reason string) Message {
	return Message{Kind: KindNack, Seq: seq, Payload: []byte(reason)}
}

// busyPrefix marks a nack payload carrying a backpressure hint. The full
// payload layout is "!busy <millis> <reason>".
const busyPrefix = "!busy "

// NackBusy builds a backpressure nack: the receiver is overloaded (queue
// full, admission refused, shedding) and the sender should wait at least
// retryAfter before retransmitting the frame (or redialing, for HelloSeq).
func NackBusy(seq uint64, retryAfter time.Duration, reason string) Message {
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return Message{Kind: KindNack, Seq: seq,
		Payload: []byte(busyPrefix + strconv.FormatInt(ms, 10) + " " + reason)}
}

// BusyHint parses the retry-after hint out of a nack payload. ok is false
// for ordinary (non-backpressure) nacks.
func BusyHint(payload []byte) (retryAfter time.Duration, reason string, ok bool) {
	s := string(payload)
	if !strings.HasPrefix(s, busyPrefix) {
		return 0, "", false
	}
	s = s[len(busyPrefix):]
	num, rest, _ := strings.Cut(s, " ")
	ms, err := strconv.ParseInt(num, 10, 64)
	if err != nil || ms < 0 {
		return 0, "", false
	}
	return time.Duration(ms) * time.Millisecond, rest, true
}

// finalPrefix marks a nack payload that refuses the frame for good: the
// receiver will refuse every copy of it, so resending is pointless. The
// payload layout is "!final <reason>".
const finalPrefix = "!final "

// NackFinal builds a permanent refusal: the sender should give the frame up
// at once instead of retransmitting it.
func NackFinal(seq uint64, reason string) Message {
	return Message{Kind: KindNack, Seq: seq, Payload: []byte(finalPrefix + reason)}
}

// FinalHint parses the reason out of a permanent refusal. ok is false for
// every other nack.
func FinalHint(payload []byte) (reason string, ok bool) {
	reason, ok = strings.CutPrefix(string(payload), finalPrefix)
	return reason, ok
}

// Write serializes m to w: on a connection of package net's own, header and
// payload leave in one gathered write (writev), so a frame costs one system
// call and an ack is one packet; any other writer gets the header, then the
// payload when there is one.
func Write(w io.Writer, m Message) error {
	if len(m.Payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [headerSize]byte
	hdr[0] = Version
	hdr[1] = m.Kind
	binary.LittleEndian.PutUint64(hdr[2:], m.Seq)
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(m.Payload)))
	binary.LittleEndian.PutUint32(hdr[14:], crc32.Checksum(m.Payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], crc32.Checksum(hdr[:hdrCRCOff], castagnoli))
	frame := net.Buffers{hdr[:], m.Payload}
	if len(m.Payload) == 0 {
		frame = frame[:1]
	}
	if _, err := frame.WriteTo(w); err != nil {
		return fmt.Errorf("netproto: writing frame: %w", err)
	}
	return nil
}

// A payload is read, and checksummed, readChunk bytes at a time: the CRC
// runs over bytes the read has just brought into the cache, not over the
// whole payload in a second pass. Room for what the header declares is made
// at once only up to eagerPayload — any real frame or query answer — and
// past that grows as the bytes arrive, so a header alone cannot claim
// MaxFrameSize of memory.
const (
	readChunk    = 128 << 10
	eagerPayload = 4 << 20
)

// Read deserializes the next message from r.
//
// On ErrChecksum the returned Message still carries the parsed Kind, Seq,
// and (corrupt) Payload — the header validated, so the caller may nack the
// frame and continue reading the stream. Any other error means the stream
// position is unreliable and the connection should be dropped.
func Read(r io.Reader) (Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	if crc32.Checksum(hdr[:hdrCRCOff], castagnoli) != binary.LittleEndian.Uint32(hdr[hdrCRCOff:]) {
		return Message{}, ErrHeader
	}
	if hdr[0] != Version {
		return Message{}, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[0], Version)
	}
	m := Message{Kind: hdr[1], Seq: binary.LittleEndian.Uint64(hdr[2:])}
	n := int(binary.LittleEndian.Uint32(hdr[10:]))
	want := binary.LittleEndian.Uint32(hdr[14:])
	if n > MaxFrameSize {
		return Message{}, ErrFrameTooLarge
	}
	m.Payload = make([]byte, 0, min(n, eagerPayload))
	var sum uint32
	for len(m.Payload) < n {
		k := min(readChunk, n-len(m.Payload))
		m.Payload = slices.Grow(m.Payload, k)
		chunk := m.Payload[len(m.Payload) : len(m.Payload)+k]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return Message{}, fmt.Errorf("netproto: reading payload: %w", err)
		}
		sum = crc32.Update(sum, castagnoli, chunk)
		m.Payload = m.Payload[:len(m.Payload)+k]
	}
	if sum != want {
		return m, ErrChecksum
	}
	return m, nil
}
