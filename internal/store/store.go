// Package store implements the server-side frame storage of the DBGC
// system (Figure 2). The paper's server writes frames to files or to a
// relational database via ODBC; in this stdlib-only build the store is an
// append-only segment file with an in-memory index — one record per frame,
// holding the compressed bit sequence B as it arrived (or, quarantined, a
// payload that failed validation).
//
// # Durability contract
//
// Put appends through the OS page cache and does not fsync; a record is
// guaranteed on stable storage only once a later Sync (or Close) returns.
// Open verifies every record's checksum while rebuilding the index and
// truncates the file at the first torn or corrupt record, so after a crash
// the store recovers exactly a durable prefix of the append order: every
// record before the corruption point is intact and indexed, everything
// from it on is discarded. A caller that acknowledges a write to a remote
// peer makes it durable first: internal/node and the replication receiver
// Commit every record through a Group before they ack it.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Kind of a stored record. Kind 2 (a raw frame in .bin layout) is retired
// and never reused: shards that hold such records still open, replicate and
// Get them, and nothing writes new ones.
const (
	// KindCompressed marks a record holding a DBGC bit sequence.
	KindCompressed byte = 1
	// KindQuarantined marks a record holding a payload that failed
	// validation on receipt (wire checksum or decode failure). It is
	// kept for forensics, never served to queries, and is shadowed by a
	// later successful Put of the same sequence number.
	KindQuarantined byte = 3
)

// ErrNotFound reports a missing frame.
var ErrNotFound = errors.New("store: frame not found")

// ErrCorrupt reports an unreadable store file.
var ErrCorrupt = errors.New("store: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the storage device a Store appends to. *os.File satisfies it via
// Open; tests substitute fault-injecting implementations (see
// faultnet.Disk) to exercise crash recovery.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

// osFile adapts *os.File to the File interface.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Store is an append-only frame store. It is safe for concurrent use.
type Store struct {
	mu sync.Mutex // guards log, index, end and announce, and orders appends
	f  File
	// log is every record of the segment in append (= offset) order, shadowed
	// copies included; index maps a sequence number to the log position of
	// its live copy.
	log   []RecordInfo
	index map[uint64]int
	end   int64
	// announce, when set (Shards.Subscribe), is told of every append under mu.
	announce func(Record)

	// syncMu keeps Close from closing the file under a Sync in flight; Sync
	// holds it instead of mu, so appends flow during an fsync.
	syncMu sync.Mutex
}

// record layout: seq (8) | kind (1) | size (4) | crc32c (4) | payload.
const recordHeader = 8 + 1 + 4 + 4

// Open opens or creates a store file and rebuilds the index from its
// contents. When the file is newly created, the parent directory is
// fsynced so a crash immediately after creation cannot lose the directory
// entry — without it the first record could be durable inside a file the
// directory does not reference.
func Open(path string) (*Store, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: syncing parent directory: %w", err)
		}
	}
	return OpenWith(osFile{f})
}

// OpenWith builds a Store over an already-open File and rebuilds the index
// from its contents. The caller keeps responsibility for directory-entry
// durability of newly created files (Open handles it for paths).
func OpenWith(f File) (*Store, error) {
	s := &Store{f: f, index: make(map[uint64]int)}
	if err := s.rebuild(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// syncDir fsyncs a directory so recently created entries in it survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// rebuild scans the segment file, verifying each record's checksum, and
// truncates at the first torn or corrupt record: a corrupt length field
// would otherwise mis-walk the rest of the segment, and a corrupt payload
// would be silently indexed only to fail at Get. Everything before the
// corruption point survives; everything after it is discarded.
func (s *Store) rebuild() error {
	fileSize, err := s.f.Size()
	if err != nil {
		return err
	}
	var hdr [recordHeader]byte
	off := int64(0)
	for {
		if _, err := s.f.ReadAt(hdr[:], off); err == io.EOF {
			break
		} else if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				// Torn final record (crash mid-append): truncate it.
				break
			}
			return err
		}
		seq := binary.LittleEndian.Uint64(hdr[0:])
		kind := hdr[8]
		size := binary.LittleEndian.Uint32(hdr[9:])
		want := binary.LittleEndian.Uint32(hdr[13:])
		next := off + recordHeader + int64(size)
		if next > fileSize || next < off {
			break // torn payload or corrupt length
		}
		sum := crc32.New(castagnoli)
		if _, err := io.Copy(sum, io.NewSectionReader(s.f, off+recordHeader, int64(size))); err != nil {
			break // unreadable payload: treat as corruption
		}
		if sum.Sum32() != want {
			break // corrupt record: stop and truncate here
		}
		s.index[seq] = len(s.log)
		s.log = append(s.log, RecordInfo{Seq: seq, Kind: kind, Size: size, CRC: want, Off: off, End: next})
		off = next
	}
	s.end = off
	return s.f.Truncate(off)
}

// liveLocked returns the live copy of seq. Caller holds s.mu.
func (s *Store) liveLocked(seq uint64) (RecordInfo, bool) {
	i, ok := s.index[seq]
	if !ok {
		return RecordInfo{}, false
	}
	return s.log[i], true
}

func (s *Store) setAnnounce(fn func(Record)) {
	s.mu.Lock()
	s.announce = fn
	s.mu.Unlock()
}

// Put appends a frame record. A later Put with the same sequence number
// shadows the earlier one.
func (s *Store) Put(seq uint64, kind byte, payload []byte) error {
	_, err := s.Append(seq, kind, payload)
	return err
}

// Append is Put returning the segment end offset after the new record —
// the position a replication sender can wait on: once the follower's
// acknowledged watermark reaches end, this record (and everything appended
// before it) is replicated. A subscriber (Shards.Subscribe) is handed payload
// itself, not a copy: the caller must not modify it afterwards.
func (s *Store) Append(seq uint64, kind byte, payload []byte) (end int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(seq, kind, payload)
}

// Quarantine appends payload as a KindQuarantined record under seq unless a
// good record already holds that number, reporting whether it wrote. Check
// and write are one step under the store mutex: a corrupt retransmit can
// never shadow the good copy a concurrent handler is appending.
func (s *Store) Quarantine(seq uint64, payload []byte) (written bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if live, ok := s.liveLocked(seq); ok && live.Kind != KindQuarantined {
		return false, nil
	}
	_, err = s.appendLocked(seq, KindQuarantined, payload)
	return err == nil, err
}

func (s *Store) appendLocked(seq uint64, kind byte, payload []byte) (end int64, err error) {
	info := RecordInfo{
		Seq: seq, Kind: kind, Size: uint32(len(payload)), CRC: crc32.Checksum(payload, castagnoli),
		Off: s.end, End: s.end + recordHeader + int64(len(payload)),
	}
	hdr := info.header()
	if _, err := s.f.WriteAt(hdr[:], s.end); err != nil {
		return s.end, fmt.Errorf("store: writing header: %w", err)
	}
	if _, err := s.f.WriteAt(payload, s.end+recordHeader); err != nil {
		return s.end, fmt.Errorf("store: writing payload: %w", err)
	}
	s.index[seq] = len(s.log)
	s.log = append(s.log, info)
	s.end = info.End
	if s.announce != nil {
		s.announce(Record{RecordInfo: info, Payload: payload})
	}
	return s.end, nil
}

// Get returns the payload and kind of the frame with the given sequence
// number. Header and payload come off the disk in one read, and the record
// must be the one the index knows: a header that names another sequence
// number, kind, size or checksum, or a payload that fails the checksum, is
// ErrCorrupt.
func (s *Store) Get(seq uint64) ([]byte, byte, error) {
	s.mu.Lock()
	pos, ok := s.liveLocked(seq)
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	rec := make([]byte, recordHeader+int(pos.Size))
	if _, err := s.f.ReadAt(rec, pos.Off); err != nil {
		return nil, 0, err
	}
	hdr, payload := pos.header(), rec[recordHeader:]
	if !bytes.Equal(rec[:recordHeader], hdr[:]) || crc32.Checksum(payload, castagnoli) != pos.CRC {
		return nil, 0, ErrCorrupt
	}
	return payload, pos.Kind, nil
}

// Kind reports the stored kind of the frame with the given sequence
// number without reading its payload.
func (s *Store) Kind(seq uint64) (byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live, ok := s.liveLocked(seq)
	return live.Kind, ok
}

// Sync flushes to stable storage every record whose Append returned before
// Sync was called. See the package comment for the durability contract. The
// fsync runs outside the index mutex: appends (and reads) proceed while a
// round is on the disk, and whatever they add is the next Sync's to cover.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	return s.f.Sync()
}

// Len returns the number of stored frames.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Seqs returns the stored sequence numbers in ascending order.
func (s *Store) Seqs() []uint64 {
	s.mu.Lock()
	out := make([]uint64, 0, len(s.index))
	for seq := range s.index {
		out = append(out, seq)
	}
	s.mu.Unlock()
	slices.Sort(out)
	return out
}

// End returns the segment end offset: the append position of the next
// record, and the upper bound of every live record's extent. Replication
// uses it as the "caught up when the follower's watermark reaches here"
// mark.
func (s *Store) End() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// RecordInfo describes one record without its payload: identity, payload
// checksum, and segment extent in append order. Manifest entries are what
// the anti-entropy scrub compares across replicas.
type RecordInfo struct {
	Seq  uint64
	Kind byte
	Size uint32
	CRC  uint32 // crc32c of the payload, as stored in the record header
	Off  int64  // record start offset
	End  int64  // record end offset (Off + header + Size)
}

// header returns the record header Append wrote for r.
func (r RecordInfo) header() (hdr [recordHeader]byte) {
	binary.LittleEndian.PutUint64(hdr[0:], r.Seq)
	hdr[8] = r.Kind
	binary.LittleEndian.PutUint32(hdr[9:], r.Size)
	binary.LittleEndian.PutUint32(hdr[13:], r.CRC)
	return hdr
}

// Record is a record with its payload, as handed to replication: announced
// by Append, or read back by ReadSince.
type Record struct {
	RecordInfo
	Payload []byte
}

// Manifest returns every live record (shadowed duplicates excluded) in
// segment order — the store's append order restricted to the surviving
// records.
func (s *Store) Manifest() []RecordInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecordInfo, 0, len(s.index))
	for i, info := range s.log {
		if s.index[info.Seq] == i {
			out = append(out, info)
		}
	}
	return out
}

// ReadSince returns the records whose start offset is at or past from —
// every appended record, shadowed copies included — in append order, stopping
// after maxBytes of payload (at least one record is returned when any
// qualifies; maxBytes <= 0 means no byte bound). Each payload is
// checksum-verified on read. This is the replication catch-up path: a sender
// whose cursor (the end offset of the last shipped record) trails what Append
// announced to it reads forward from there. The store mutex is held for a
// binary search and the copy of the batch's infos, whatever the segment holds.
func (s *Store) ReadSince(from int64, maxBytes int) ([]Record, error) {
	s.mu.Lock()
	lo := sort.Search(len(s.log), func(i int) bool { return s.log[i].Off >= from })
	hi, budget := lo, maxBytes
	for ; hi < len(s.log); hi++ {
		if maxBytes > 0 && hi > lo && budget < int(s.log[hi].Size) {
			break
		}
		budget -= int(s.log[hi].Size)
	}
	infos := slices.Clone(s.log[lo:hi])
	s.mu.Unlock()
	out := make([]Record, 0, len(infos))
	for _, info := range infos {
		payload := make([]byte, info.Size)
		if _, err := s.f.ReadAt(payload, info.Off+recordHeader); err != nil {
			return out, fmt.Errorf("store: reading record %d: %w", info.Seq, err)
		}
		if crc32.Checksum(payload, castagnoli) != info.CRC {
			return out, fmt.Errorf("store: record %d: %w", info.Seq, ErrCorrupt)
		}
		out = append(out, Record{RecordInfo: info, Payload: payload})
	}
	return out, nil
}

// Close flushes and closes the underlying file, after any Sync in flight.
func (s *Store) Close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
