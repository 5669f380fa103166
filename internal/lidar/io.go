package lidar

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"dbgc/internal/geom"
)

// ReadBin reads a KITTI-format .bin frame: little-endian float32 records of
// (x, y, z, intensity). The intensity channel is discarded — DBGC is a
// geometry compressor (§2.1); use ReadBinWithIntensity to keep it.
func ReadBin(r io.Reader) (geom.PointCloud, error) {
	pc, _, err := readBin(r, false)
	return pc, err
}

// ReadBinWithIntensity reads a KITTI .bin frame keeping the per-point
// intensity channel.
func ReadBinWithIntensity(r io.Reader) (geom.PointCloud, []float32, error) {
	return readBin(r, true)
}

// A .bin record is four little-endian float32s.
const binRecord = 16

// binRecords returns the number of records r is about to deliver if r can
// say — an in-memory reader by its Len, a regular file by its size — and
// zero otherwise. It sizes the result once; the read does not rely on it.
func binRecords(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len() / binRecord
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size() / binRecord)
		}
	}
	return 0
}

// binDecoder is the one .bin parser, an io.Writer for io.Copy to feed: an
// in-memory reader hands it all its bytes in one Write (WriteTo) and they
// convert straight out of the reader's own slice, anything else arrives a
// staging buffer at a time. Records convert as they complete; a record
// split across Writes waits in tail.
type binDecoder struct {
	pc     geom.PointCloud
	intens []float32 // nil: intensities dropped
	tail   []byte
}

// records converts the whole records of p.
func (d *binDecoder) records(p []byte) {
	for ; len(p) >= binRecord; p = p[binRecord:] {
		x := math.Float32frombits(binary.LittleEndian.Uint32(p[0:]))
		y := math.Float32frombits(binary.LittleEndian.Uint32(p[4:]))
		z := math.Float32frombits(binary.LittleEndian.Uint32(p[8:]))
		d.pc = append(d.pc, geom.Point{X: float64(x), Y: float64(y), Z: float64(z)})
		if d.intens != nil {
			d.intens = append(d.intens, math.Float32frombits(binary.LittleEndian.Uint32(p[12:])))
		}
	}
}

func (d *binDecoder) Write(p []byte) (int, error) {
	n := len(p)
	if len(d.tail) > 0 {
		k := min(binRecord-len(d.tail), len(p))
		d.tail, p = append(d.tail, p[:k]...), p[k:]
		if len(d.tail) < binRecord {
			return n, nil
		}
		d.records(d.tail)
		d.tail = d.tail[:0]
	}
	d.records(p)
	d.tail = append(d.tail, p[len(p)-len(p)%binRecord:]...)
	return n, nil
}

func readBin(r io.Reader, withIntensity bool) (geom.PointCloud, []float32, error) {
	n := binRecords(r)
	d := binDecoder{pc: make(geom.PointCloud, 0, n)}
	if withIntensity {
		d.intens = make([]float32, 0, n)
	}
	_, err := io.Copy(&d, r)
	if err == nil && len(d.tail) > 0 {
		err = io.ErrUnexpectedEOF // the input ended inside a record
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lidar: reading .bin record %d: %w", len(d.pc), err)
	}
	return d.pc, d.intens, nil
}

// WriteBin writes a cloud in KITTI .bin format with zero intensities.
func WriteBin(w io.Writer, pc geom.PointCloud) error {
	return WriteBinWithIntensity(w, pc, nil)
}

// binEncoder is the one .bin writer, an io.Reader for io.Copy to drain: a
// bytes.Buffer reads it straight into its own spare room (ReadFrom), where
// the records convert in place, anything else takes it a staging buffer at
// a time. A record that does not fit what is left of p waits in tail.
type binEncoder struct {
	pc        geom.PointCloud
	intensity []float32 // nil: zeros
	next      int       // the first point not yet converted
	rec       [binRecord]byte
	tail      []byte
}

// records converts into p as many of the points left as p has room for
// whole records, and returns the bytes written.
func (e *binEncoder) records(p []byte) int {
	n := min(len(p)/binRecord, len(e.pc)-e.next)
	p = p[:n*binRecord]
	var in []float32
	if e.intensity != nil {
		in = e.intensity[e.next : e.next+n]
	}
	for i, pt := range e.pc[e.next : e.next+n] {
		// Two 8-byte stores a record: x|y, z|intensity.
		lo := uint64(math.Float32bits(float32(pt.X))) | uint64(math.Float32bits(float32(pt.Y)))<<32
		hi := uint64(math.Float32bits(float32(pt.Z)))
		if in != nil {
			hi |= uint64(math.Float32bits(in[i])) << 32
		}
		binary.LittleEndian.PutUint64(p[i*binRecord:], lo)
		binary.LittleEndian.PutUint64(p[i*binRecord+8:], hi)
	}
	e.next += n
	return n * binRecord
}

func (e *binEncoder) Read(p []byte) (n int, err error) {
	n = copy(p, e.tail)
	e.tail = e.tail[n:]
	n += e.records(p[n:])
	if e.next < len(e.pc) && len(e.tail) == 0 && n < len(p) {
		e.records(e.rec[:])
		k := copy(p[n:], e.rec[:])
		e.tail = e.rec[k:]
		n += k
	}
	if e.next == len(e.pc) && len(e.tail) == 0 {
		err = io.EOF // with the last bytes: a ReadFrom stops without asking for more room
	}
	return n, err
}

// WriteBinWithIntensity writes a cloud in KITTI .bin format. intensity may
// be nil (zeros) or must hold one value per point.
func WriteBinWithIntensity(w io.Writer, pc geom.PointCloud, intensity []float32) error {
	if intensity != nil && len(intensity) != len(pc) {
		return fmt.Errorf("lidar: %d intensities for %d points", len(intensity), len(pc))
	}
	// A writer that can make room for the whole frame — a bytes.Buffer —
	// does so once, not by doubling.
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(binRecord * len(pc))
	}
	if _, err := io.Copy(w, &binEncoder{pc: pc, intensity: intensity}); err != nil {
		return fmt.Errorf("lidar: writing .bin: %w", err)
	}
	return nil
}

// ReadBinFile reads a .bin frame from disk.
func ReadBinFile(path string) (geom.PointCloud, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBin(f)
}

// WriteBinFile writes a .bin frame to disk.
func WriteBinFile(path string, pc geom.PointCloud) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBin(f, pc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
