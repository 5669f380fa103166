package stream

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"dbgc"
	"dbgc/internal/geom"
)

// FuzzReader hammers the container reader with mutated streams, under decode
// limits so that a decompression bomb fails the target; it must never panic
// and must terminate.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		f.Fatal(err)
	}
	pc := geom.PointCloud{{X: 4, Y: 1, Z: -1}, {X: 4.1, Y: 1.05, Z: -1}}
	if err := w.WriteFrame(pc, []float32{0.5, 0.6}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:10])
	f.Add([]byte("DBGS\x01"))
	archive, err := os.ReadFile("testdata/temporal3.dbgs")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(archive)
	f.Add(oversizedHeader())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		r.SetLimits(dbgc.DecodeLimits{MaxPoints: 1 << 20, MaxNodes: 1 << 22, MaxSectionBytes: 1 << 20, MemBudget: 64 << 20})
		for i := 0; i < 100; i++ {
			if _, err := r.ReadFrame(); err != nil {
				if !errors.Is(err, io.EOF) {
					return
				}
				return
			}
		}
	})
}
