// Archive: record a multi-frame capture of a static scene, with an
// intensity channel, into a stream container of independently compressed
// frames and read it back — the stream composition the paper's
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

	size, err := record(capture, intensity)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontainer: %d bytes (%.1fx vs raw), every frame read back\n", size, float64(raw)/float64(size))
}

// record writes the capture to an in-memory container and verifies it
// reads back, returning the container size.
func record(capture []dbgc.PointCloud, intensity [][]float32) (int, error) {
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, dbgc.DefaultOptions(q), 10)
	if err != nil {
		return 0, err
	}
	w.OnStats = func(fs stream.FrameStats) {
		fmt.Printf("  frame %d: %7d geometry + %6d intensity bytes (%.1fx)\n",
			fs.Seq, fs.GeometryBytes, fs.IntensityBytes, fs.Ratio)
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
