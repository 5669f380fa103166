// Package stream implements a container format for sequences of DBGC-
// compressed frames. The paper compresses single frames and notes that
// "single-frame compression can be a building block in compressing point
// cloud streams" (§1); this package is that building block's composition:
// a self-describing stream of independently compressed frames with optional
// per-frame intensity channels, CRC protection, and sequential read-back.
//
// Every frame is an I-frame: a self-contained DBGC payload. Kind 1, the
// P-frame an earlier writer predicted from the frame before it, is no
// longer coded; a reader refuses such a frame with ErrPredictedFrame and
// goes on to the next.
//
// Layout:
//
//	magic "DBGS" | version byte | q (float64) | fps (float64)
//	frame*: marker 0x01 | seq uvarint | kind byte (0=I; 1=P, refused)
//	        | geomLen uvarint | geom | attrLen uvarint | attr
//	        | crc32c (seq..attr) fixed32
//	end:    marker 0x00
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"dbgc"
	"dbgc/internal/attr"
	"dbgc/internal/declimits"
	"dbgc/internal/framepipe"
	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("stream: corrupt container")

// ErrPredictedFrame refuses a P-frame (kind 1) of an archive written while
// the container still coded them: such a frame cannot be decoded, but the
// I-frames around it can.
var ErrPredictedFrame = errors.New("stream: P-frames are no longer decoded")

// errChecksum marks a frame whose body was fully read but whose trailing
// CRC failed. The stream stays positioned at the next frame, so partial
// mode can keep reading; all other read errors abort iteration.
var errChecksum = errors.New("checksum mismatch")

var magic = []byte("DBGS")

const version = 1

const (
	markerFrame = 0x01
	markerEnd   = 0x00
)

// Frame kinds.
const (
	frameI = 0 // self-contained DBGC payload
	frameP = 1 // predicted from the frame before it; refused on read
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSection bounds one frame section against corrupt headers.
const maxSection = 256 << 20

// Writer compresses frames into a container. Frames compress side by side,
// as many as GOMAXPROCS allows, and are written in the order WriteFrame
// received them.
type Writer struct {
	w      *bufio.Writer
	opts   dbgc.Options
	seq    uint64
	done   bool
	window *framepipe.Window[encodeJob, encodedFrame]
	err    error // first compression or write error, sticky

	// OnStats, when set, receives the FrameStats of each frame as it is
	// written, in frame order, from a later WriteFrame or Close call on the
	// caller's goroutine.
	OnStats func(FrameStats)
}

// encodeJob is one frame on its way through the compression window.
type encodeJob struct {
	seq       uint64
	pc        geom.PointCloud
	intensity []float32
	opts      dbgc.Options
}

// encodedFrame is a fully framed body (seq..crc) ready to write.
type encodedFrame struct {
	body  []byte
	stats FrameStats
}

// encodeFrame compresses one frame and assembles the container body
// (seq | kind | sections | crc). It is safe to call concurrently.
func encodeFrame(j encodeJob) (encodedFrame, error) {
	var out encodedFrame
	data, stats, err := dbgc.Compress(j.pc, j.opts)
	if err != nil {
		return out, fmt.Errorf("stream: frame %d: %w", j.seq, err)
	}
	var attrData []byte
	if j.intensity != nil {
		attrData, err = attr.EncodeIntensity(j.intensity, stats.Mapping, 8)
		if err != nil {
			return out, fmt.Errorf("stream: frame %d intensity: %w", j.seq, err)
		}
	}
	buf := varint.AppendUint(nil, j.seq)
	buf = append(buf, frameI)
	buf = varint.AppendUint(buf, uint64(len(data)))
	buf = append(buf, data...)
	buf = varint.AppendUint(buf, uint64(len(attrData)))
	buf = append(buf, attrData...)
	out.body = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	out.stats = FrameStats{
		Seq:            j.seq,
		Points:         len(j.pc),
		GeometryBytes:  len(data),
		IntensityBytes: len(attrData),
		Ratio:          float64(len(j.pc)*12) / float64(len(data)),
	}
	return out, nil
}

// NewWriter starts a container on w, compressing every frame with opts.
// fps is recorded for bandwidth accounting on the read side (0 if
// unknown).
func NewWriter(w io.Writer, opts dbgc.Options, fps float64) (*Writer, error) {
	if opts.Q <= 0 {
		return nil, fmt.Errorf("stream: error bound must be positive, got %v", opts.Q)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(opts.Q))
	binary.LittleEndian.PutUint64(hdr[8:], math.Float64bits(fps))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	wr := &Writer{w: bw, opts: opts}
	wr.window = framepipe.New(encodeFrame, wr.finish)
	return wr, nil
}

// FrameStats summarizes one written frame.
type FrameStats struct {
	Seq            uint64
	Points         int
	GeometryBytes  int
	IntensityBytes int
	Ratio          float64
}

// WriteFrame queues one frame for compression and returns; the frame is
// written, and OnStats told, by a later WriteFrame or by Close, which is
// also where a compression error surfaces. intensity may be nil; when
// present it must hold one value per point and is stored as an 8-bit
// channel aligned with the decoded geometry. The caller must not mutate the
// cloud or the intensity slice afterwards.
func (w *Writer) WriteFrame(pc geom.PointCloud, intensity []float32) error {
	if w.done {
		return errors.New("stream: writer already closed")
	}
	if w.err != nil {
		return w.err
	}
	w.window.Submit(encodeJob{seq: w.seq, pc: pc, intensity: intensity, opts: w.opts})
	w.seq++
	return w.err
}

// finish writes one compressed frame, keeping the first error.
func (w *Writer) finish(f encodedFrame, err error) {
	if w.err != nil {
		return
	}
	if err == nil {
		err = w.w.WriteByte(markerFrame)
	}
	if err == nil {
		_, err = w.w.Write(f.body)
	}
	if err != nil {
		w.err = err
		return
	}
	if w.OnStats != nil {
		w.OnStats(f.stats)
	}
}

// Close writes the frames still compressing, terminates the container, and
// flushes buffered output.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	w.window.Drain()
	if w.err != nil {
		return w.err
	}
	if err := w.w.WriteByte(markerEnd); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader iterates over a container. It decodes ahead of the caller, as many
// frames side by side as GOMAXPROCS allows, and returns them in stream
// order.
type Reader struct {
	r   *bufio.Reader
	q   float64
	fps float64

	// limits bounds each frame decode (SetLimits); zero = unlimited.
	limits dbgc.DecodeLimits
	// partial recovers intact sections of damaged frames (EnablePartial).
	partial bool

	window *framepipe.Window[decodeJob, Frame]
	ready  []decoded // decoded and not yet returned, oldest first
	err    error     // why reading stopped: io.EOF at the end marker, else the framing error
	one    [1]byte   // fold's scratch
}

// decodeJob is one raw frame body on its way through the decode window.
type decodeJob struct {
	seq     uint64
	kind    byte
	geom    []byte
	attr    []byte
	crcBad  bool // partial mode: the body was read in full but its checksum failed
	partial bool
	limits  dbgc.DecodeLimits
}

// decoded is one outcome of the decode window.
type decoded struct {
	frame Frame
	err   error
}

// SetLimits bounds the resources every subsequent frame decode may spend;
// the zero value removes the limits. The caps apply per frame, not across
// the stream.
func (r *Reader) SetLimits(l dbgc.DecodeLimits) { r.limits = l }

// EnablePartial switches the reader to partial-recovery mode: a damaged
// frame no longer aborts iteration. ReadFrame returns the points of the
// frame's intact sections and describes the damage in Frame.Damage.
func (r *Reader) EnablePartial() { r.partial = true }

func newStreamBudget(l dbgc.DecodeLimits) *declimits.Budget {
	if l.MaxPoints == 0 && l.MaxNodes == 0 && l.MaxSectionBytes == 0 && l.MemBudget == 0 && l.Ctx == nil {
		return nil
	}
	return declimits.New(l)
}

// decodeFrame decodes one frame body. In partial mode whatever is
// wrong with the frame is described in Frame.Damage and the error is nil. It
// is safe to call concurrently.
func decodeFrame(j decodeJob) (Frame, error) {
	cloud, sections, err := decodeGeometry(j)
	f := Frame{Seq: j.seq, Cloud: cloud}
	var attrErr error
	if err == nil {
		f.Intensity, attrErr = decodeIntensity(j.seq, j.attr, len(cloud))
	}
	if j.partial {
		if j.crcBad || err != nil || sections != nil || attrErr != nil {
			f.Damage = &FrameDamage{CRCMismatch: j.crcBad, Sections: sections, Err: err, AttrErr: attrErr}
		}
		return f, nil
	}
	if err == nil {
		err = attrErr
	}
	if err != nil {
		return Frame{}, err
	}
	return f, nil
}

// decodeGeometry decodes a frame body's geometry section. sections is set
// when partial mode salvaged an I-frame some of whose sections are damaged.
func decodeGeometry(j decodeJob) (cloud geom.PointCloud, sections []dbgc.SectionReport, err error) {
	dopts := dbgc.DecompressOptions{Limits: j.limits}
	switch j.kind {
	case frameI:
		if !j.partial {
			cloud, err = dbgc.DecompressWith(j.geom, dopts)
			break
		}
		cloud, sections, err = dbgc.DecompressPartial(j.geom, dopts)
		if !slices.ContainsFunc(sections, func(rep dbgc.SectionReport) bool { return rep.Err != nil }) {
			sections = nil
		}
	case frameP:
		return nil, nil, fmt.Errorf("%w: frame %d", ErrPredictedFrame, j.seq)
	default:
		return nil, nil, fmt.Errorf("%w: unknown frame kind %d", ErrCorrupt, j.kind)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("stream: frame %d geometry: %w", j.seq, err)
	}
	return cloud, sections, nil
}

// decodeIntensity decodes the optional intensity channel of a frame of
// points points; nil when the frame carries none.
func decodeIntensity(seq uint64, attrData []byte, points int) ([]float32, error) {
	if len(attrData) == 0 {
		return nil, nil
	}
	intensity, err := attr.DecodeIntensity(attrData)
	if err != nil {
		return nil, fmt.Errorf("stream: frame %d intensity: %w", seq, err)
	}
	if len(intensity) != points {
		return nil, fmt.Errorf("%w: frame %d has %d intensities for %d points",
			ErrCorrupt, seq, len(intensity), points)
	}
	return intensity, nil
}

// NewReader validates the container header and prepares iteration.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1+16)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("stream: header: %w", err)
	}
	if string(head[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("stream: unsupported version %d", head[len(magic)])
	}
	q := math.Float64frombits(binary.LittleEndian.Uint64(head[len(magic)+1:]))
	fps := math.Float64frombits(binary.LittleEndian.Uint64(head[len(magic)+9:]))
	if !(q > 0) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("%w: invalid error bound %v", ErrCorrupt, q)
	}
	rd := &Reader{r: br, q: q, fps: fps}
	rd.window = framepipe.New(decodeFrame, rd.deliver)
	return rd, nil
}

// Q returns the stream's error bound.
func (r *Reader) Q() float64 { return r.q }

// FPS returns the recorded frame rate (0 if unknown).
func (r *Reader) FPS() float64 { return r.fps }

// Frame is one decoded frame.
type Frame struct {
	Seq       uint64
	Cloud     geom.PointCloud
	Intensity []float32 // nil when the frame has no attribute channel
	// Damage is non-nil in partial mode when the frame was not fully
	// recovered; Cloud then holds only the points of its intact sections.
	Damage *FrameDamage
}

// FrameDamage reports what was lost when a damaged frame was partially
// recovered (Reader.EnablePartial).
type FrameDamage struct {
	// CRCMismatch reports that the container-level frame checksum failed;
	// the per-section reports below attribute the damage.
	CRCMismatch bool
	// Sections holds the per-section reports of DecompressPartial when the
	// frame's DBGC envelope was readable and at least one section was
	// damaged (I-frames only).
	Sections []dbgc.SectionReport
	// Err is set when nothing was recoverable: an unparseable DBGC
	// envelope, or a P-frame, refused with ErrPredictedFrame.
	Err error
	// AttrErr is a non-nil intensity-decode failure; the frame's Intensity
	// is dropped.
	AttrErr error
}

// ReadFrame returns the next frame, or io.EOF after the end marker. A frame
// that fails to decode, or a P-frame, costs one error and the next call goes
// on; an error in the container's own framing ends iteration.
func (r *Reader) ReadFrame() (Frame, error) {
	for len(r.ready) == 0 {
		if r.err == nil {
			r.err = r.readAhead()
			continue
		}
		r.window.Drain()
		if len(r.ready) == 0 {
			return Frame{}, r.err
		}
	}
	d := r.ready[0]
	r.ready[0] = decoded{} // the slice must not keep the cloud alive
	r.ready = r.ready[1:]
	return d.frame, d.err
}

// readAhead moves one frame body from the stream into the decode window. It
// returns what ends reading: io.EOF at the end marker, or a framing error.
func (r *Reader) readAhead() error {
	marker, err := r.r.ReadByte()
	switch {
	case err != nil:
		return fmt.Errorf("stream: marker: %w", err)
	case marker == markerEnd:
		return io.EOF
	case marker != markerFrame:
		return fmt.Errorf("%w: unknown marker %#x", ErrCorrupt, marker)
	}
	j, err := r.readBody()
	if err != nil {
		// A failed checksum leaves the stream positioned at the next frame,
		// so partial mode salvages the intact sections and keeps going.
		if !r.partial || !errors.Is(err, errChecksum) {
			return err
		}
		j.crcBad = true
	}
	j.partial, j.limits = r.partial, r.limits
	r.window.Submit(j)
	return nil
}

// deliver takes one decoded frame, in stream order, from the window.
func (r *Reader) deliver(f Frame, err error) {
	r.ready = append(r.ready, decoded{f, err})
}

// readBody reads one frame body up to its checksum. A body read in full
// whose checksum fails comes back with an errChecksum error.
func (r *Reader) readBody() (decodeJob, error) {
	var j decodeJob
	var sum uint32 // crc32c of seq..attr as they are read
	var err error
	if j.seq, err = r.uvarint(&sum); err != nil {
		return j, fmt.Errorf("stream: seq: %w", err)
	}
	if j.kind, err = r.r.ReadByte(); err != nil {
		return j, fmt.Errorf("stream: frame kind: %w", err)
	}
	r.fold(&sum, j.kind)
	if j.geom, err = r.section("geometry", &sum); err != nil {
		return j, err
	}
	if j.attr, err = r.section("attribute", &sum); err != nil {
		return j, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.r, crcBuf[:]); err != nil {
		return j, fmt.Errorf("stream: crc: %w", err)
	}
	if sum != binary.LittleEndian.Uint32(crcBuf[:]) {
		return j, fmt.Errorf("%w: frame %d %w", ErrCorrupt, j.seq, errChecksum)
	}
	return j, nil
}

// fold adds one header byte to sum, through a scratch that costs no
// allocation per byte.
func (r *Reader) fold(sum *uint32, b byte) {
	r.one[0] = b
	*sum = crc32.Update(*sum, castagnoli, r.one[:])
}

// uvarint reads one varint, folding its bytes into sum.
func (r *Reader) uvarint(sum *uint32) (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b, err := r.r.ReadByte()
		if err != nil {
			return 0, err
		}
		r.fold(sum, b)
		if shift >= 64 {
			return 0, ErrCorrupt
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

// section reads one length-prefixed section, folding it into sum. The
// declared length is checked against the reader's limits before anything is
// allocated, and memory is taken a step at a time as the bytes arrive: a
// header may declare up to maxSection bytes that the stream does not hold,
// and the reader keeps a window of sections in memory.
func (r *Reader) section(name string, sum *uint32) ([]byte, error) {
	n, err := r.uvarint(sum)
	if err != nil {
		return nil, fmt.Errorf("stream: %s length: %w", name, err)
	}
	if n > maxSection {
		return nil, fmt.Errorf("%w: %s section of %d bytes", ErrCorrupt, name, n)
	}
	if err := declimits.New(r.limits).Section(int64(n)); err != nil {
		return nil, fmt.Errorf("stream: %s section: %w", name, err)
	}
	const step = 1 << 20
	buf := make([]byte, 0, min(int(n), step))
	for len(buf) < int(n) {
		end := min(int(n), len(buf)+step)
		buf = slices.Grow(buf, end-len(buf))
		_, err := io.ReadFull(r.r, buf[len(buf):end])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // the section broke off, it did not end
		}
		if err != nil {
			return nil, fmt.Errorf("stream: %s payload: %w", name, err)
		}
		buf = buf[:end]
	}
	*sum = crc32.Update(*sum, castagnoli, buf)
	return buf, nil
}
