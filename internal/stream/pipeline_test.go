package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"dbgc"
	"dbgc/internal/geom"
)

// readAtWidth reads a whole container with GOMAXPROCS set to procs.
func readAtWidth(t *testing.T, data []byte, procs int) []Frame {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	frames := readAll(t, r)
	// Reading past EOF stays EOF.
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	return frames
}

// sameAtEveryWidth reads a container of n frames one frame at a time
// (GOMAXPROCS 1) and with read-ahead, and wants the same frames in the same
// order.
func sameAtEveryWidth(t *testing.T, data []byte, n int) {
	t.Helper()
	serial := readAtWidth(t, data, 1)
	if len(serial) != n {
		t.Fatalf("read %d frames, wrote %d", len(serial), n)
	}
	for _, procs := range widths[1:] {
		piped := readAtWidth(t, data, procs)
		if len(piped) != n {
			t.Fatalf("GOMAXPROCS %d: read %d frames, wrote %d", procs, len(piped), n)
		}
		for i := range serial {
			if serial[i].Seq != piped[i].Seq || !cloudsEqual(serial[i].Cloud, piped[i].Cloud) ||
				!slices.Equal(serial[i].Intensity, piped[i].Intensity) {
				t.Fatalf("GOMAXPROCS %d: frame %d (seq %d) differs from seq %d read one at a time",
					procs, i, piped[i].Seq, serial[i].Seq)
			}
		}
	}
}

// TestPipelinedReaderMatchesSerial: reading ahead returns the same frames in
// the same order as reading one frame at a time, intensity channel included.
func TestPipelinedReaderMatchesSerial(t *testing.T) {
	frames := testFrames(t, 4)
	sameAtEveryWidth(t, pack(t, frames), len(frames))
}

// TestPipelinedWriterErrorSurfaces: a compression failure inside the window
// surfaces on a later WriteFrame or Close instead of being swallowed, and
// nothing after the failed frame is written.
func TestPipelinedWriterErrorSurfaces(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	w.OnStats = func(fs FrameStats) { t.Errorf("frame %d written after a failed frame", fs.Seq) }
	// A NaN coordinate makes dbgc.Compress fail inside the window.
	bad := geom.PointCloud{{X: math.NaN(), Y: 2, Z: 3}}
	if err := w.WriteFrame(bad, nil); err != nil {
		t.Fatalf("submission itself should succeed, got %v", err)
	}
	good := geom.PointCloud{{X: 4, Y: 1, Z: -1}}
	for i := 0; i < 3*runtime.GOMAXPROCS(0); i++ {
		if w.WriteFrame(good, nil) != nil {
			break
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("compression error never surfaced")
	}
}
