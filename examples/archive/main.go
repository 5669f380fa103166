// Archive: record a multi-frame capture of a static scene into a stream
// container, comparing plain per-frame compression against temporal
// (predicted-octree P-frame) mode — the stream composition the paper's
// introduction anticipates for single-frame compression.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

const (
	frames = 6
	q      = 0.02
)

func main() {
	// A static tripod capture: the same scene scanned repeatedly; only
	// sensor noise differs between frames.
	scene, err := lidar.NewScene(lidar.Campus, 21)
	if err != nil {
		log.Fatal(err)
	}
	sensor := lidar.HDL64E()
	capture := make([]dbgc.PointCloud, frames)
	intensity := make([][]float32, frames)
	raw := 0
	for i := range capture {
		capture[i] = sensor.Simulate(scene, int64(i+1))
		raw += capture[i].RawSize()
		// Synthetic reflectivity: smooth over the scan.
		intensity[i] = make([]float32, len(capture[i]))
		for j := range intensity[i] {
			intensity[i][j] = float32(j%1000) / 1000
		}
	}
	fmt.Printf("captured %d frames, %.1f MB raw\n\n", frames, float64(raw)/1e6)

	plain, err := record(capture, intensity, 0)
	if err != nil {
		log.Fatal(err)
	}
	temporal, err := record(capture, intensity, frames) // one I-frame, rest P
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-frame (I only):      %8d bytes (%.1fx vs raw)\n", plain, float64(raw)/float64(plain))
	fmt.Printf("temporal (I + P-frames): %8d bytes (%.1fx vs raw, %.2fx vs per-frame)\n",
		temporal, float64(raw)/float64(temporal), float64(plain)/float64(temporal))
}

// record writes the capture to an in-memory container and verifies it
// reads back, returning the container size.
func record(capture []dbgc.PointCloud, intensity [][]float32, temporalInterval int) (int, error) {
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, dbgc.DefaultOptions(q), 10)
	if err != nil {
		return 0, err
	}
	if temporalInterval >= 2 {
		if err := w.EnableTemporal(temporalInterval); err != nil {
			return 0, err
		}
	}
	w.OnStats = func(fs stream.FrameStats) {
		kind := "I"
		if fs.Predicted {
			kind = "P"
		}
		fmt.Printf("  frame %d [%s]: %7d geometry + %6d intensity bytes\n",
			fs.Seq, kind, fs.GeometryBytes, fs.IntensityBytes)
	}
	for i, pc := range capture {
		if err := w.WriteFrame(pc, intensity[i]); err != nil {
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}

	// Verify read-back.
	r, err := stream.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, err
	}
	for i := 0; ; i++ {
		fr, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			if i != len(capture) {
				return 0, fmt.Errorf("read %d frames, wrote %d", i, len(capture))
			}
			break
		}
		if err != nil {
			return 0, err
		}
		if len(fr.Cloud) != len(capture[i]) {
			return 0, fmt.Errorf("frame %d: %d points, want %d", i, len(fr.Cloud), len(capture[i]))
		}
	}
	return buf.Len(), nil
}
