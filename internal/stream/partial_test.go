package stream

import (
	"bytes"
	"io"
	"testing"

	"dbgc"
	"dbgc/internal/geom"
)

// corruptFrame locates one frame's compressed geometry inside the stream
// container (compression is deterministic, so the standalone bit sequence
// matches the embedded one) and flips its last byte — the tail of the
// outlier section payload.
func corruptFrame(t *testing.T, container []byte, pc geom.PointCloud, opts dbgc.Options) []byte {
	t.Helper()
	blob, _, err := dbgc.Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(container, blob)
	if off < 0 {
		t.Fatal("could not locate the frame's bit sequence in the container")
	}
	mut := append([]byte(nil), container...)
	mut[off+len(blob)-1] ^= 0xff
	return mut
}

// readAll drains a reader, failing the test on any error.
func readAll(t *testing.T, r *Reader) []Frame {
	t.Helper()
	var out []Frame
	for {
		fr, err := r.ReadFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fr)
	}
}

// TestPartialRecoversOtherFrames corrupts one section of the middle frame
// of a three-frame stream. Default reading aborts at the damage; partial
// reading recovers the other frames byte-identically, salvages the middle
// frame's intact sections, and reports what was lost.
func TestPartialRecoversOtherFrames(t *testing.T) {
	frames := testFrames(t, 3)
	opts := dbgc.DefaultOptions(0.02)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range frames {
		if err := w.WriteFrame(pc, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	clean := readAll(t, r)
	if len(clean) != 3 {
		t.Fatalf("clean read returned %d frames", len(clean))
	}

	mut := corruptFrame(t, buf.Bytes(), frames[1], opts)

	// Default mode: the damaged frame aborts iteration.
	r, err = NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err != nil {
		t.Fatalf("frame 0 should read cleanly, got %v", err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Fatal("default mode should fail on the damaged frame")
	}

	// Partial mode: all three frames come back.
	r, err = NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	r.EnablePartial()
	got := readAll(t, r)
	if len(got) != 3 {
		t.Fatalf("partial read returned %d frames, want 3", len(got))
	}
	for _, i := range []int{0, 2} {
		if got[i].Damage != nil {
			t.Fatalf("frame %d reported damage: %+v", i, got[i].Damage)
		}
		if !cloudsEqual(clean[i].Cloud, got[i].Cloud) {
			t.Fatalf("frame %d differs from the clean read", i)
		}
	}
	dmg := got[1].Damage
	if dmg == nil {
		t.Fatal("damaged frame 1 carries no damage report")
	}
	if !dmg.CRCMismatch {
		t.Fatal("frame-level CRC mismatch not flagged")
	}
	var damagedSections int
	for _, rep := range dmg.Sections {
		if rep.Err != nil {
			damagedSections++
			if rep.Section != dbgc.SectionOutlier {
				t.Fatalf("unexpected damaged section %s: %v", rep.Section, rep.Err)
			}
		}
	}
	if damagedSections != 1 {
		t.Fatalf("%d sections reported damaged, want 1", damagedSections)
	}
	// Sections decode in container order (dense, sparse, outlier), so the
	// salvaged cloud is a strict prefix of the clean frame.
	part := got[1].Cloud
	if len(part) == 0 || len(part) >= len(clean[1].Cloud) {
		t.Fatalf("salvaged %d of %d points", len(part), len(clean[1].Cloud))
	}
	if !cloudsEqual(clean[1].Cloud[:len(part)], part) {
		t.Fatal("salvaged sections are not byte-identical to the clean decode")
	}
}

func cloudsEqual(a, b geom.PointCloud) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
