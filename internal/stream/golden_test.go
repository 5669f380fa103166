package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
//
// testdata/temporal3.dbgs is the temporal container the writer made before
// P-frames were retired: six frames of a static scene, I P P I P P, packed
// with a keyframe interval of 3. goldenTemporal is its hash and
// goldenTemporalIFrames the digest of frames 0 and 3 as the reader that
// still decoded P-frames returned them.

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
// container. The frames are coded with the paper's coders (ContextModel
// off), as they were when the pins were taken: the pins are of the
// container, not of the frame codec's default.
func pack(t *testing.T, frames []geom.PointCloud) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := dbgc.DefaultOptions(0.02)
	opts.ContextModel = false
	w, err := NewWriter(&buf, opts, 10)
	if err != nil {
		t.Fatal(err)
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

// TestContainerGolden pins the container an all-I writer produces and the
// frames a reader returns from it, and holds the reader to the temporal
// archive: its I-frames decode as they did when P-frames were still read,
// and each P-frame is refused by name, in both modes, without ending the
// stream.
func TestContainerGolden(t *testing.T) {
	frames := testFrames(t, 4)
	archive, err := os.ReadFile("testdata/temporal3.dbgs")
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(archive); got != goldenTemporal {
		t.Fatalf("testdata/temporal3.dbgs hashes to %s, pinned %s", got, goldenTemporal)
	}
	atWidths(t, func(t *testing.T) {
		data := pack(t, frames)
		if got := sha(data); got != goldenIntra {
			t.Errorf("intra: container %s, pinned %s", got, goldenIntra)
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r)
		if len(got) != len(frames) {
			t.Fatalf("intra: read %d frames, wrote %d", len(got), len(frames))
		}
		if d := digest(got); d != goldenIntraFrames {
			t.Errorf("intra: decoded frames %s, pinned %s", d, goldenIntraFrames)
		}

		for _, partial := range []bool{false, true} {
			if d := digest(readArchive(t, archive, partial)); d != goldenTemporalIFrames {
				t.Errorf("temporal3 (partial=%v): I-frames %s, pinned %s", partial, d, goldenTemporalIFrames)
			}
		}
	})
}

// readArchive reads the six-frame temporal archive and returns its I-frames,
// 0 and 3, after checking that each of its P-frames is refused with
// ErrPredictedFrame and that io.EOF follows frame 5.
func readArchive(t *testing.T, archive []byte, partial bool) []Frame {
	t.Helper()
	r, err := NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		r.EnablePartial()
	}
	var iframes []Frame
	for i := range 6 {
		f, err := r.ReadFrame()
		refusal := err
		if partial && err == nil && f.Damage != nil {
			refusal = f.Damage.Err
		}
		switch i {
		case 0, 3:
			if refusal != nil {
				t.Fatalf("I-frame %d: %v", i, refusal)
			}
			if f.Seq != uint64(i) {
				t.Fatalf("position %d holds frame %d", i, f.Seq)
			}
			iframes = append(iframes, f)
		default:
			if partial && err != nil {
				t.Fatalf("P-frame %d ended a partial read: %v", i, err)
			}
			if !errors.Is(refusal, ErrPredictedFrame) || errors.Is(refusal, ErrCorrupt) {
				t.Fatalf("P-frame %d: %v, want ErrPredictedFrame alone", i, refusal)
			}
			if len(f.Cloud) != 0 || f.Intensity != nil {
				t.Fatalf("P-frame %d returned %d points, %d intensities", i, len(f.Cloud), len(f.Intensity))
			}
			if partial && (f.Seq != uint64(i) || f.Damage.CRCMismatch || f.Damage.Sections != nil) {
				t.Fatalf("P-frame %d: frame %d, damage %s", i, f.Seq, describe(f.Damage))
			}
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after frame 5: %v, want io.EOF", err)
	}
	return iframes
}

// frameSpan locates one frame's geometry section and checksum in a
// container.
type frameSpan struct {
	seq, kind, geom, geomEnd, crc int
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
		s := frameSpan{seq: off + 1}
		_, s.kind = uvarint(s.seq)
		n, g := uvarint(s.kind + 1)
		s.geom, s.geomEnd = g, g+int(n)
		n, off = uvarint(s.geomEnd)
		s.crc = off + int(n)
		out = append(out, s)
		off = s.crc + 4
	}
	return out
}

// TestPartialDamagedStream is the combination the reader used to refuse:
// partial recovery with read-ahead. An eight-frame all-I stream has frame 1
// damaged in its geometry, frame 3 damaged in its outlier section, frame 5
// turned into a P-frame (kind byte 1, checksum recomputed) and frame 7
// intact under a failed checksum. Every width must report the same frames
// and the same damage, and return every other frame whole.
func TestPartialDamagedStream(t *testing.T) {
	frames := testFrames(t, 8)
	data := pack(t, frames)
	at := spans(t, data)
	if len(at) != len(frames) {
		t.Fatalf("walked %d frames, wrote %d", len(at), len(frames))
	}
	mut := append([]byte(nil), data...)
	mut[(at[1].geom+at[1].geomEnd)/2] ^= 0xff
	mut[at[3].geomEnd-1] ^= 0xff
	mut[at[5].kind] = frameP
	binary.LittleEndian.PutUint32(mut[at[5].crc:], crc32.Checksum(mut[at[5].seq:at[5].crc], castagnoli))
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
		r.EnablePartial()
		got := readAll(t, r)
		if len(got) != len(frames) {
			t.Fatalf("read %d frames, want %d", len(got), len(frames))
		}
		for i, f := range got {
			if f.Seq != uint64(i) {
				t.Fatalf("position %d holds frame %d", i, f.Seq)
			}
			switch i {
			case 0, 2, 4, 6: // clean frames, the ones after damage included
				if f.Damage != nil || !cloudsEqual(f.Cloud, want[i].Cloud) {
					t.Errorf("frame %d: damage %s, or points differ from the clean read", i, describe(f.Damage))
				}
			case 1: // damaged geometry
				if f.Damage == nil || !f.Damage.CRCMismatch || (f.Damage.Sections == nil && f.Damage.Err == nil) {
					t.Errorf("frame 1: %s, want a checksum failure and what it cost", describe(f.Damage))
				}
			case 3: // damaged outliers: the sections before them survive
				if f.Damage == nil || !f.Damage.CRCMismatch || f.Damage.Sections == nil || f.Damage.Err != nil {
					t.Errorf("frame 3: %s, want a checksum failure with section reports", describe(f.Damage))
				}
				if n := len(f.Cloud); n == 0 || n >= len(want[3].Cloud) || !cloudsEqual(f.Cloud, want[3].Cloud[:n]) {
					t.Errorf("frame 3: salvaged %d of %d points, or not a prefix of the clean read", n, len(want[3].Cloud))
				}
			case 5: // a P-frame under a good checksum
				if f.Damage == nil || !errors.Is(f.Damage.Err, ErrPredictedFrame) || f.Damage.CRCMismatch || len(f.Cloud) != 0 {
					t.Errorf("frame 5: %s with %d points, want a refused P-frame", describe(f.Damage), len(f.Cloud))
				}
			case 7: // checksum only: every point is there
				if f.Damage == nil || !f.Damage.CRCMismatch || f.Damage.Err != nil || f.Damage.Sections != nil {
					t.Errorf("frame 7: %s, want only a checksum failure", describe(f.Damage))
				}
				if !cloudsEqual(f.Cloud, want[7].Cloud) || len(f.Intensity) != len(f.Cloud) {
					t.Errorf("frame 7: points or intensities differ from the clean read")
				}
			}
		}
		if d := digest(got); d != goldenDamagedFrames {
			t.Errorf("damaged stream read as %s, pinned %s", d, goldenDamagedFrames)
		}
	})
}

const (
	goldenIntra           = "10f8db3adb2367c9a358d4b16bc7f41ad9f29c8f675e60b5f1d5457594105fa5"
	goldenIntraFrames     = "5766dd2495421f2d5ddded6550614f926ec1984a8d1693cbefad75d50fb663ac"
	goldenTemporal        = "544fe5e61ef2a36d9345d2c13dea44b3de3e6d92b5fed28ec92d296243576d33"
	goldenTemporalIFrames = "1f2ff512a34b6843f2cbf456b0fac023e2cd3fcf38ef25ecda07b587732553fe"
	goldenDamagedFrames   = "f76fbf43c0681fc9ad9caa83c8b3ef357ef826e2aa66849798e75267295edc81"
)
