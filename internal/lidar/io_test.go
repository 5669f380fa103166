package lidar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"dbgc/internal/geom"
)

func TestBinIntensityRoundTrip(t *testing.T) {
	pc := geom.PointCloud{{X: 1, Y: 2, Z: 3}, {X: -4, Y: 0.5, Z: -1.7}}
	intens := []float32{0.25, 0.75}
	var buf bytes.Buffer
	if err := WriteBinWithIntensity(&buf, pc, intens); err != nil {
		t.Fatal(err)
	}
	back, backIntens, err := ReadBinWithIntensity(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || len(backIntens) != 2 {
		t.Fatalf("read %d points, %d intensities", len(back), len(backIntens))
	}
	for i := range pc {
		if pc[i].Dist(back[i]) > 1e-5 {
			t.Fatalf("point %d: %v vs %v", i, pc[i], back[i])
		}
		if math.Abs(float64(backIntens[i]-intens[i])) > 1e-7 {
			t.Fatalf("intensity %d: %v vs %v", i, backIntens[i], intens[i])
		}
	}
}

func TestBinIntensityMismatch(t *testing.T) {
	pc := geom.PointCloud{{X: 1}}
	if err := WriteBinWithIntensity(&bytes.Buffer{}, pc, []float32{1, 2}); err == nil {
		t.Fatal("intensity length mismatch accepted")
	}
}

func TestBinZeroIntensityDefault(t *testing.T) {
	pc := geom.PointCloud{{X: 1, Y: 1, Z: 1}}
	var buf bytes.Buffer
	if err := WriteBin(&buf, pc); err != nil {
		t.Fatal(err)
	}
	_, intens, err := ReadBinWithIntensity(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if intens[0] != 0 {
		t.Fatalf("default intensity %v, want 0", intens[0])
	}
}

func TestBinFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/frame.bin"
	pc := geom.PointCloud{{X: 9, Y: 8, Z: 7}, {X: 1, Y: 2, Z: 3}}
	if err := WriteBinFile(path, pc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pc) {
		t.Fatalf("read %d points", len(back))
	}
	if _, err := ReadBinFile(dir + "/missing.bin"); err == nil {
		t.Fatal("missing file read successfully")
	}
}

// binCloud returns n points and intensities that survive a float32 round
// trip exactly, and the .bin bytes they must be written as, built one
// record at a time the way the format is defined.
func binCloud(n int) (geom.PointCloud, []float32, []byte) {
	pc := make(geom.PointCloud, n)
	intens := make([]float32, n)
	var want []byte
	for i := range pc {
		x, y, z := float32(i)*0.25, -float32(i)*0.5, float32(i%7)-3
		pc[i] = geom.Point{X: float64(x), Y: float64(y), Z: float64(z)}
		intens[i] = float32(i%256) / 255
		for _, f := range []float32{x, y, z, intens[i]} {
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(f))
		}
	}
	return pc, intens, want
}

// binBlock is io.Copy's staging buffer: what a reader without WriteTo and a
// writer without ReadFrom are served a piece at a time.
const binBlock = 32 << 10

// plainReader hides everything but Read, so the reader has no Len and no
// WriteTo.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// plainWriter hides everything but Write, so the writer has no Grow and no
// ReadFrom.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestBinBlocks: clouds below, at and above the block size are written as
// the same bytes the record-at-a-time format defines, with intensities and
// without, into a bytes.Buffer (which reads the records into its own spare
// room), into a buffer that already holds bytes, into a writer that can only
// Write (served a block at a time) and to a reader that asks for odd pieces;
// and read back exactly from readers that hand over their bytes whole
// (bytes.Reader, bytes.Buffer), from a file, from a reader that can only
// Read, and from one that delivers a byte at a time.
func TestBinBlocks(t *testing.T) {
	const perBlock = binBlock / binRecord
	for _, n := range []int{0, 1, perBlock - 1, perBlock, perBlock + 1, 3*perBlock + 17} {
		pc, intens, want := binCloud(n)
		zeroed := bytes.Clone(want)
		for i := 12; i < len(zeroed); i += binRecord {
			copy(zeroed[i:], []byte{0, 0, 0, 0})
		}
		for name, c := range map[string]struct {
			intens []float32
			want   []byte
		}{"WriteBinWithIntensity": {intens, want}, "WriteBin": {nil, zeroed}} {
			var buf, plain bytes.Buffer
			after := bytes.NewBufferString("header")
			for _, w := range []io.Writer{&buf, plainWriter{&plain}, after} {
				if err := WriteBinWithIntensity(w, pc, c.intens); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(buf.Bytes(), c.want) {
				t.Fatalf("n=%d: %s wrote other bytes than the format's into a bytes.Buffer", n, name)
			}
			if !bytes.Equal(plain.Bytes(), c.want) {
				t.Fatalf("n=%d: %s wrote other bytes than the format's into a plain io.Writer", n, name)
			}
			if !bytes.Equal(after.Bytes(), append([]byte("header"), c.want...)) {
				t.Fatalf("n=%d: %s into a buffer that holds bytes did not append the format's", n, name)
			}
			for _, piece := range []int{1, 7, binRecord, binRecord + 7} {
				if n > perBlock+1 && piece < binRecord {
					continue
				}
				var got []byte
				enc, p := &binEncoder{pc: pc, intensity: c.intens}, make([]byte, piece)
				for {
					k, err := enc.Read(p)
					got = append(got, p[:k]...)
					if err == io.EOF {
						break
					}
					if err != nil || k == 0 {
						t.Fatalf("n=%d: %s read %d bytes at a time: %d, %v", n, name, piece, k, err)
					}
				}
				if !bytes.Equal(got, c.want) {
					t.Fatalf("n=%d: %s read %d bytes at a time gives other bytes than the format's", n, name, piece)
				}
			}
		}

		path := filepath.Join(t.TempDir(), "frame.bin")
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for name, r := range map[string]io.Reader{
			"bytes.Reader": bytes.NewReader(want),
			"bytes.Buffer": bytes.NewBuffer(bytes.Clone(want)),
			"file":         f,
			"no Len":       plainReader{bytes.NewReader(want)},
			"one byte":     iotest.OneByteReader(bytes.NewReader(want)),
		} {
			gotPC, gotIn, err := ReadBinWithIntensity(r)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if len(gotPC) != n || len(gotIn) != n {
				t.Fatalf("n=%d %s: read %d points, %d intensities", n, name, len(gotPC), len(gotIn))
			}
			for i := range pc {
				if gotPC[i] != pc[i] || gotIn[i] != intens[i] {
					t.Fatalf("n=%d %s: record %d is %v %v, want %v %v", n, name, i, gotPC[i], gotIn[i], pc[i], intens[i])
				}
			}
		}
		back, err := ReadBin(bytes.NewReader(want))
		if err != nil || len(back) != n {
			t.Fatalf("n=%d: ReadBin: %d points, %v", n, len(back), err)
		}
	}
}

// TestBinTornTail: an input that ends inside a record is an error naming
// that record, wherever in the record and in the block it ends; one that
// ends between records is a shorter cloud.
func TestBinTornTail(t *testing.T) {
	const perBlock = binBlock / binRecord
	_, _, data := binCloud(perBlock + 2)
	dir := t.TempDir()
	for _, records := range []int{0, 1, perBlock - 1, perBlock, perBlock + 1} {
		for extra := 0; extra < binRecord; extra++ {
			cut := data[:records*binRecord+extra]
			path := filepath.Join(dir, fmt.Sprintf("%d+%d.bin", records, extra))
			if err := os.WriteFile(path, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for name, r := range map[string]io.Reader{
				"bytes.Reader": bytes.NewReader(cut),
				"bytes.Buffer": bytes.NewBuffer(bytes.Clone(cut)),
				"file":         f,
				"no Len":       plainReader{bytes.NewReader(cut)},
				"one byte":     iotest.OneByteReader(bytes.NewReader(cut)),
			} {
				pc, err := ReadBin(r)
				if extra == 0 {
					if err != nil || len(pc) != records {
						t.Fatalf("%s, %d whole records: %d points, %v", name, records, len(pc), err)
					}
					continue
				}
				if !errors.Is(err, io.ErrUnexpectedEOF) || pc != nil {
					t.Fatalf("%s, %d records and %d bytes: %d points, error %v, want unexpected EOF", name, records, extra, len(pc), err)
				}
				if want := fmt.Sprintf("record %d:", records); !strings.Contains(err.Error(), want) {
					t.Fatalf("%s, %d records and %d bytes: error %q does not name %q", name, records, extra, err, want)
				}
			}
		}
	}
	// A reader that fails mid-stream reports its own error, with the record.
	boom := errors.New("boom")
	_, err := ReadBin(io.MultiReader(bytes.NewReader(data[:40]), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "record 2:") {
		t.Fatalf("failing reader: error %v, want boom at record 2", err)
	}
}

func BenchmarkBinCodec(b *testing.B) {
	pc, _, _ := binCloud(115000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBin(&buf, pc); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadBin(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
