package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dbgc"
	"dbgc/internal/geom"
	"dbgc/internal/varint"
)

// The pins below were captured from the three-path writer and reader (serial
// I, serial P, pooled I; ReadFrame, readFramePartial, readFramePipelined) at
// the commit before they became one path. They hold the container's bytes,
// and what a reader makes of them, to that commit at every width.

// widths are the GOMAXPROCS settings every container test runs at.
var widths = []int{1, 2, 4}

// atWidths runs f once per width with GOMAXPROCS set to it.
func atWidths(t *testing.T, f func(t *testing.T)) {
	for _, procs := range widths {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// rampIntensity is a fixed intensity channel for frame fi.
func rampIntensity(fi int, pc geom.PointCloud) []float32 {
	out := make([]float32, len(pc))
	for i := range out {
		out[i] = float32((i+fi)%256) / 255
	}
	return out
}

// pack writes frames, each with the ramp intensity channel, into one
// container; interval >= 2 makes it temporal. The frames are coded with the
// paper's coders (ContextModel off), as they were when the pins were taken:
// the pins are of the container, not of the frame codec's default.
func pack(t *testing.T, frames []geom.PointCloud, interval int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := dbgc.DefaultOptions(0.02)
	opts.ContextModel = false
	w, err := NewWriter(&buf, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if interval >= 2 {
		if err := w.EnableTemporal(interval); err != nil {
			t.Fatal(err)
		}
	}
	for i, pc := range frames {
		if err := w.WriteFrame(pc, rampIntensity(i, pc)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// digest hashes a frame sequence: order, points, intensities and the whole
// damage report, error text included.
func digest(frames []Frame) string {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "frame %d: %d points, %d intensities\n", f.Seq, len(f.Cloud), len(f.Intensity))
		binary.Write(h, binary.LittleEndian, f.Cloud)
		binary.Write(h, binary.LittleEndian, f.Intensity)
		fmt.Fprintln(h, describe(f.Damage))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// describe renders a damage report, error text included.
func describe(d *FrameDamage) string {
	if d == nil {
		return "clean"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "crc=%v err=%v attr=%v", d.CRCMismatch, d.Err, d.AttrErr)
	for _, rep := range d.Sections {
		fmt.Fprintf(&b, " %s:%d:%v", rep.Section, rep.Points, rep.Err)
	}
	return b.String()
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestContainerGolden pins the container an all-I writer and a temporal
// writer produce, and the frames a reader returns from each.
func TestContainerGolden(t *testing.T) {
	cases := []struct {
		name              string
		frames            []geom.PointCloud
		interval          int
		container, decode string
	}{
		{"intra", testFrames(t, 4), 0, goldenIntra, goldenIntraFrames},
		{"temporal3", staticFrames(t, 6), 3, goldenTemporal, goldenTemporalFrames},
	}
	atWidths(t, func(t *testing.T) {
		for _, c := range cases {
			data := pack(t, c.frames, c.interval)
			if got := sha(data); got != c.container {
				t.Errorf("%s: container %s, pinned %s", c.name, got, c.container)
			}
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, r)
			if len(got) != len(c.frames) {
				t.Fatalf("%s: read %d frames, wrote %d", c.name, len(got), len(c.frames))
			}
			if d := digest(got); d != c.decode {
				t.Errorf("%s: decoded frames %s, pinned %s", c.name, d, c.decode)
			}
		}
	})
}

// frameSpan locates one frame's geometry section and checksum in a
// container.
type frameSpan struct {
	geom, geomEnd, crc int
}

// spans walks a well-formed container.
func spans(t *testing.T, data []byte) []frameSpan {
	t.Helper()
	uvarint := func(off int) (uint64, int) {
		v, n, err := varint.Uint(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		return v, off + n
	}
	var out []frameSpan
	off := len(magic) + 1 + 16
	for data[off] == markerFrame {
		_, off = uvarint(off + 1)
		off++ // kind
		n, g := uvarint(off)
		s := frameSpan{geom: g, geomEnd: g + int(n)}
		n, off = uvarint(s.geomEnd)
		s.crc = off + int(n)
		out = append(out, s)
		off = s.crc + 4
	}
	return out
}

// TestPartialDamagedStream is the combination the reader used to refuse:
// partial recovery with read-ahead. A temporal stream (I P P | I P P | I P P)
// has P-frame 1 damaged, I-frame 3 damaged in its outlier section, and
// P-frame 7 intact under a failed checksum. Every width must report the same
// frames and the same damage, and lose the same P-frames to the broken chain.
func TestPartialDamagedStream(t *testing.T) {
	frames := staticFrames(t, 9)
	data := pack(t, frames, 3)
	at := spans(t, data)
	if len(at) != len(frames) {
		t.Fatalf("walked %d frames, wrote %d", len(at), len(frames))
	}
	mut := append([]byte(nil), data...)
	mut[(at[1].geom+at[1].geomEnd)/2] ^= 0xff
	mut[at[3].geomEnd-1] ^= 0xff
	mut[at[7].crc] ^= 0xff

	clean, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, clean)

	atWidths(t, func(t *testing.T) {
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.EnablePartial(); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r)
		if len(got) != len(frames) {
			t.Fatalf("read %d frames, want %d", len(got), len(frames))
		}
		for i, f := range got {
			if f.Seq != uint64(i) {
				t.Fatalf("position %d holds frame %d", i, f.Seq)
			}
			switch i {
			case 0, 6: // clean I-frames: frame 6 restarts the chain
				if f.Damage != nil || !cloudsEqual(f.Cloud, want[i].Cloud) {
					t.Errorf("frame %d: damage %s, or points differ from the clean read", i, describe(f.Damage))
				}
			case 1: // damaged P-frame
				if f.Damage == nil || !f.Damage.CRCMismatch {
					t.Errorf("frame 1: %s, want a checksum failure", describe(f.Damage))
				}
			case 3: // damaged I-frame: the sections before the outliers survive
				if f.Damage == nil || !f.Damage.CRCMismatch || f.Damage.Sections == nil || f.Damage.Err != nil {
					t.Errorf("frame 3: %s, want a checksum failure with section reports", describe(f.Damage))
				}
				if n := len(f.Cloud); n == 0 || n >= len(want[3].Cloud) || !cloudsEqual(f.Cloud, want[3].Cloud[:n]) {
					t.Errorf("frame 3: salvaged %d of %d points, or not a prefix of the clean read", n, len(want[3].Cloud))
				}
			case 7: // checksum only: every point is there, the frame is still not a reference
				if f.Damage == nil || !f.Damage.CRCMismatch || f.Damage.Err != nil || f.Damage.Sections != nil {
					t.Errorf("frame 7: %s, want only a checksum failure", describe(f.Damage))
				}
				if !cloudsEqual(f.Cloud, want[7].Cloud) || len(f.Intensity) != len(f.Cloud) {
					t.Errorf("frame 7: points or intensities differ from the clean read")
				}
			case 2, 4, 5, 8: // P-frames behind a damaged frame
				if f.Damage == nil || f.Damage.Err == nil || f.Damage.CRCMismatch || len(f.Cloud) != 0 {
					t.Errorf("frame %d: %s with %d points, want a lost reference", i, describe(f.Damage), len(f.Cloud))
				}
			}
		}
		if d := digest(got); d != goldenDamagedFrames {
			t.Errorf("damaged stream read as %s, pinned %s", d, goldenDamagedFrames)
		}
	})
}

const (
	goldenIntra          = "10f8db3adb2367c9a358d4b16bc7f41ad9f29c8f675e60b5f1d5457594105fa5"
	goldenIntraFrames    = "5766dd2495421f2d5ddded6550614f926ec1984a8d1693cbefad75d50fb663ac"
	goldenTemporal       = "544fe5e61ef2a36d9345d2c13dea44b3de3e6d92b5fed28ec92d296243576d33"
	goldenTemporalFrames = "30118b912da6579a1ce82f98fbed6e7fb4900b8a2057243bf3af96a42b092394"
	goldenDamagedFrames  = "19f27e38a7e13898741adf6959c3f50b32e5bd36c3eec1a68718e6cc312559b0"
)
