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

// A .bin record is four little-endian float32s; records are converted a
// block at a time.
const (
	binRecord = 16
	binBlock  = 64 << 10
)

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

func readBin(r io.Reader, withIntensity bool) (geom.PointCloud, []float32, error) {
	n := binRecords(r)
	pc := make(geom.PointCloud, 0, n)
	var intens []float32
	if withIntensity {
		intens = make([]float32, 0, n)
	}
	block := make([]byte, binBlock)
	for {
		got, err := io.ReadFull(r, block)
		for rec := block[:got-got%binRecord]; len(rec) > 0; rec = rec[binRecord:] {
			x := math.Float32frombits(binary.LittleEndian.Uint32(rec[0:]))
			y := math.Float32frombits(binary.LittleEndian.Uint32(rec[4:]))
			z := math.Float32frombits(binary.LittleEndian.Uint32(rec[8:]))
			pc = append(pc, geom.Point{X: float64(x), Y: float64(y), Z: float64(z)})
			if withIntensity {
				intens = append(intens, math.Float32frombits(binary.LittleEndian.Uint32(rec[12:])))
			}
		}
		switch {
		case err == nil:
		case (err == io.EOF || err == io.ErrUnexpectedEOF) && got%binRecord == 0:
			// The input ended on a record boundary.
			return pc, intens, nil
		default:
			return nil, nil, fmt.Errorf("lidar: reading .bin record %d: %w", len(pc), err)
		}
	}
}

// WriteBin writes a cloud in KITTI .bin format with zero intensities.
func WriteBin(w io.Writer, pc geom.PointCloud) error {
	return WriteBinWithIntensity(w, pc, nil)
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
	block := make([]byte, 0, min(binBlock, binRecord*len(pc)))
	for i, p := range pc {
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.X)))
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.Y)))
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(float32(p.Z)))
		var in float32
		if intensity != nil {
			in = intensity[i]
		}
		block = binary.LittleEndian.AppendUint32(block, math.Float32bits(in))
		if len(block) == cap(block) || i == len(pc)-1 {
			if _, err := w.Write(block); err != nil {
				return fmt.Errorf("lidar: writing .bin: %w", err)
			}
			block = block[:0]
		}
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
