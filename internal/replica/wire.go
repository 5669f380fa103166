// Package replica implements primary→follower replication of the frame
// stores: the primary's shards announce every append to the sender, which
// streams the records — from the announced payload, or from the segment when
// it has to catch up — to a follower over the netproto replication dialect (KindReplHello /
// KindReplRecord / KindReplAck), the follower verifies each record's
// CRC32-C, applies it, makes it durable, and acks.
//
// # Epoch fencing
//
// Every replication payload starts with an epoch byte. Promotion bumps the
// follower's epoch, and a receiver refuses hellos and records from an
// older epoch — a deposed primary that comes back cannot overwrite a
// promoted follower.
//
// # Watermarks
//
// The follower tracks, per tenant, a contiguous watermark W: the primary-
// segment end offset below which every record has been applied and made
// durable. Each shipped record carries its own end offset and the end
// offset of its predecessor (the prev chain); W advances only when a
// record's prev is at or below W, so retransmit-induced reordering can
// never open a hole under the watermark. Out-of-order arrivals are parked
// and drained once the chain closes. A sender starts each tenant's cursor at
// the watermark the follower reports in its first stream handshake, or at
// the end its own segment had when it started if that is lower (a primary
// that lost an un-fsynced tail the follower already holds) — anything above
// is re-shipped, and re-application is idempotent (the store's last-Put-wins
// shadowing).
//
// # Anti-entropy scrub
//
// Periodically the primary asks the follower for per-tenant digests
// (record count + XOR of record CRCs) and, where they diverge, full
// manifests (seq, crc per record); divergent or missing records are
// re-shipped with the scrub flag set, which applies and acks but does not
// move the watermark.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Hello modes.
const (
	// ModeStream opens a replication stream; the response carries the
	// follower's per-tenant watermarks so the sender can start its cursors
	// where the follower left off.
	ModeStream byte = 0
	// ModeDigest asks for per-tenant digests (anti-entropy, cheap pass).
	ModeDigest byte = 1
	// ModeManifest asks for one tenant's full record manifest
	// (anti-entropy, expensive pass over a divergent tenant).
	ModeManifest byte = 2
)

// FlagScrub marks a record re-shipped by the anti-entropy scrub: the
// follower applies and acks it but does not advance the watermark, since
// scrub traffic is outside the prev chain.
const FlagScrub byte = 1 << 0

// ErrMalformed reports an undecodable replication payload.
var ErrMalformed = errors.New("replica: malformed payload")

// ErrEpochFenced reports a hello or record from an epoch older than the
// receiver's — the sender is a deposed primary and must stop.
var ErrEpochFenced = errors.New("replica: epoch fenced")

// Record is one replicated store record plus its chain metadata. End and
// Prev are primary-segment offsets: End is the record's end offset, Prev
// the end offset of the previously shipped record for the same tenant.
type Record struct {
	Epoch   byte
	Scrub   bool
	Tenant  string
	Seq     uint64
	Kind    byte
	End     int64
	Prev    int64
	CRC     uint32 // crc32c of Payload, identical to the store header CRC
	Payload []byte
}

// Record payload layout:
// epoch(1) | flags(1) | nameLen(1) | name | seq(8) | kind(1) | end(8) |
// prev(8) | crc(4) | payload.
const recordFixed = 1 + 1 + 1 + 8 + 1 + 8 + 8 + 4

// EncodeRecord serializes r for a KindReplRecord frame.
func EncodeRecord(r Record) []byte {
	buf := make([]byte, 0, recordFixed+len(r.Tenant)+len(r.Payload))
	var flags byte
	if r.Scrub {
		flags |= FlagScrub
	}
	buf = append(buf, r.Epoch, flags, byte(len(r.Tenant)))
	buf = append(buf, r.Tenant...)
	buf = appendU64(buf, r.Seq)
	buf = append(buf, r.Kind)
	buf = appendU64(buf, uint64(r.End))
	buf = appendU64(buf, uint64(r.Prev))
	buf = appendU32(buf, r.CRC)
	return append(buf, r.Payload...)
}

// DecodeRecord parses a KindReplRecord payload.
func DecodeRecord(p []byte) (Record, error) {
	if len(p) < 3 {
		return Record{}, fmt.Errorf("%w: record header", ErrMalformed)
	}
	r := Record{Epoch: p[0], Scrub: p[1]&FlagScrub != 0}
	nameLen := int(p[2])
	rest := p[3:]
	if len(rest) < nameLen+recordFixed-3 {
		return Record{}, fmt.Errorf("%w: record truncated", ErrMalformed)
	}
	r.Tenant = string(rest[:nameLen])
	rest = rest[nameLen:]
	r.Seq = binary.LittleEndian.Uint64(rest)
	r.Kind = rest[8]
	r.End = int64(binary.LittleEndian.Uint64(rest[9:]))
	r.Prev = int64(binary.LittleEndian.Uint64(rest[17:]))
	r.CRC = binary.LittleEndian.Uint32(rest[25:])
	r.Payload = rest[29:]
	if r.Tenant == "" {
		return Record{}, fmt.Errorf("%w: empty tenant", ErrMalformed)
	}
	return r, nil
}

// Hello is a replication handshake request.
type Hello struct {
	Epoch  byte
	Mode   byte
	Tenant string // ModeManifest only
}

// EncodeHello serializes h for a KindReplHello frame:
// epoch(1) | mode(1) | nameLen(1) | name.
func EncodeHello(h Hello) []byte {
	buf := make([]byte, 0, 3+len(h.Tenant))
	buf = append(buf, h.Epoch, h.Mode, byte(len(h.Tenant)))
	return append(buf, h.Tenant...)
}

// DecodeHello parses a KindReplHello payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 3 {
		return Hello{}, fmt.Errorf("%w: hello header", ErrMalformed)
	}
	h := Hello{Epoch: p[0], Mode: p[1]}
	nameLen := int(p[2])
	if len(p) < 3+nameLen {
		return Hello{}, fmt.Errorf("%w: hello truncated", ErrMalformed)
	}
	h.Tenant = string(p[3 : 3+nameLen])
	if h.Mode > ModeManifest {
		return Hello{}, fmt.Errorf("%w: hello mode %d", ErrMalformed, h.Mode)
	}
	if h.Mode == ModeManifest && h.Tenant == "" {
		return Hello{}, fmt.Errorf("%w: manifest hello without tenant", ErrMalformed)
	}
	return h, nil
}

// EncodeWatermarks serializes a stream-handshake response: the follower's
// epoch and per-tenant watermarks.
// Layout: epoch(1) | count(2) | entries of nameLen(1)|name|wm(8).
func EncodeWatermarks(epoch byte, wm map[string]int64) []byte {
	buf := make([]byte, 0, 3+len(wm)*16)
	buf = append(buf, epoch)
	buf = appendU16(buf, uint16(len(wm)))
	for name, w := range wm {
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = appendU64(buf, uint64(w))
	}
	return buf
}

// DecodeWatermarks parses a stream-handshake response.
func DecodeWatermarks(p []byte) (epoch byte, wm map[string]int64, err error) {
	if len(p) < 3 {
		return 0, nil, fmt.Errorf("%w: watermarks header", ErrMalformed)
	}
	epoch = p[0]
	count := int(binary.LittleEndian.Uint16(p[1:]))
	wm = make(map[string]int64, count)
	rest := p[3:]
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return 0, nil, fmt.Errorf("%w: watermark entry", ErrMalformed)
		}
		nameLen := int(rest[0])
		if len(rest) < 1+nameLen+8 {
			return 0, nil, fmt.Errorf("%w: watermark entry truncated", ErrMalformed)
		}
		name := string(rest[1 : 1+nameLen])
		wm[name] = int64(binary.LittleEndian.Uint64(rest[1+nameLen:]))
		rest = rest[1+nameLen+8:]
	}
	return epoch, wm, nil
}

// Digest summarizes one tenant's live records for the cheap anti-entropy
// pass: equal digests mean (with overwhelming probability) equal stores.
type Digest struct {
	Count  uint64 // live records
	XorCRC uint32 // XOR of every live record's payload CRC32-C
}

// EncodeDigests serializes a ModeDigest response:
// count(2) | entries of nameLen(1)|name|count(8)|xor(4).
func EncodeDigests(d map[string]Digest) []byte {
	buf := make([]byte, 0, 2+len(d)*20)
	buf = appendU16(buf, uint16(len(d)))
	for name, dg := range d {
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = appendU64(buf, dg.Count)
		buf = appendU32(buf, dg.XorCRC)
	}
	return buf
}

// DecodeDigests parses a ModeDigest response.
func DecodeDigests(p []byte) (map[string]Digest, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: digests header", ErrMalformed)
	}
	count := int(binary.LittleEndian.Uint16(p))
	out := make(map[string]Digest, count)
	rest := p[2:]
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: digest entry", ErrMalformed)
		}
		nameLen := int(rest[0])
		if len(rest) < 1+nameLen+12 {
			return nil, fmt.Errorf("%w: digest entry truncated", ErrMalformed)
		}
		name := string(rest[1 : 1+nameLen])
		out[name] = Digest{
			Count:  binary.LittleEndian.Uint64(rest[1+nameLen:]),
			XorCRC: binary.LittleEndian.Uint32(rest[1+nameLen+8:]),
		}
		rest = rest[1+nameLen+12:]
	}
	return out, nil
}

// ManifestEntry identifies one live record for the manifest diff.
type ManifestEntry struct {
	Seq uint64
	CRC uint32
}

// EncodeManifest serializes a ModeManifest response:
// count(4) | entries of seq(8)|crc(4).
func EncodeManifest(entries []ManifestEntry) []byte {
	buf := make([]byte, 0, 4+len(entries)*12)
	buf = appendU32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendU64(buf, e.Seq)
		buf = appendU32(buf, e.CRC)
	}
	return buf
}

// DecodeManifest parses a ModeManifest response.
func DecodeManifest(p []byte) ([]ManifestEntry, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: manifest header", ErrMalformed)
	}
	count := int(binary.LittleEndian.Uint32(p))
	if len(p) < 4+count*12 {
		return nil, fmt.Errorf("%w: manifest truncated", ErrMalformed)
	}
	out := make([]ManifestEntry, count)
	for i := range out {
		off := 4 + i*12
		out[i] = ManifestEntry{
			Seq: binary.LittleEndian.Uint64(p[off:]),
			CRC: binary.LittleEndian.Uint32(p[off+8:]),
		}
	}
	return out, nil
}

func appendU16(b []byte, v uint16) []byte {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}
