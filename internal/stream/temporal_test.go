package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"dbgc"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// staticFrames captures the same static scene repeatedly: per-ray noise
// and dropout differ, geometry does not — the tripod-survey case the
// paper's introduction motivates.
func staticFrames(t *testing.T, n int) []geom.PointCloud {
	t.Helper()
	scene, err := lidar.NewScene(lidar.Campus, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lidar.HDL64E()
	cfg.AzimuthSteps = 400
	out := make([]geom.PointCloud, n)
	for i := range out {
		out[i] = cfg.Simulate(scene, int64(i+1))
	}
	return out
}

// verifyAgainstOriginal checks every decoded point sits within the bound
// of some original point (nearest-neighbor check on a subsample; the
// stream container does not carry the index mapping).
func verifyAgainstOriginal(t *testing.T, orig, dec geom.PointCloud, q float64) {
	t.Helper()
	if len(dec) != len(orig) {
		t.Fatalf("point count changed: %d in, %d out", len(orig), len(dec))
	}
	bound := math.Sqrt(3) * q * 1.0001
	for j := 0; j < len(dec); j += 499 {
		best := math.Inf(1)
		for _, p := range orig {
			if d := dec[j].Dist(p); d < best {
				best = d
			}
		}
		if best > bound {
			t.Fatalf("decoded point %d is %v from any original (bound %v)", j, best, bound)
		}
	}
}

func TestTemporalRoundTrip(t *testing.T) {
	frames := staticFrames(t, 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableTemporal(4); err != nil {
		t.Fatal(err)
	}
	var iBytes, pBytes, pFrames int
	w.OnStats = func(fs FrameStats) {
		i := int(fs.Seq)
		if i == 0 && fs.Predicted {
			t.Error("first frame must be an I-frame")
		}
		if i > 0 && !fs.Predicted {
			t.Errorf("frame %d should be predicted", i)
		}
		if fs.Predicted {
			pBytes += fs.GeometryBytes
			pFrames++
			if fs.StaticPoints < fs.Points/2 {
				t.Errorf("frame %d: only %d/%d points static on a static scene",
					i, fs.StaticPoints, fs.Points)
			}
		} else {
			iBytes += fs.GeometryBytes
		}
	}
	for i, pc := range frames {
		if err := w.WriteFrame(pc, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if pFrames != len(frames)-1 {
		t.Fatalf("%d P-frames reported, want %d", pFrames, len(frames)-1)
	}
	if pBytes/pFrames >= iBytes {
		t.Errorf("P-frames (%d avg bytes) should be smaller than the I-frame (%d)", pBytes/pFrames, iBytes)
	}
	t.Logf("I-frame %d bytes; P-frames avg %d bytes (%.1fx smaller)",
		iBytes, pBytes/pFrames, float64(iBytes)/float64(pBytes/pFrames))

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		fr, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			if i != len(frames) {
				t.Fatalf("read %d frames, wrote %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		verifyAgainstOriginal(t, frames[i], fr.Cloud, 0.02)
	}
}

func TestTemporalWithIntensity(t *testing.T) {
	frames := staticFrames(t, 3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableTemporal(3); err != nil {
		t.Fatal(err)
	}
	for i, pc := range frames {
		intens := make([]float32, len(pc))
		for j := range intens {
			intens[j] = float32(j%256) / 255
		}
		if err := w.WriteFrame(pc, intens); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range frames {
		fr, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(fr.Intensity) != len(fr.Cloud) {
			t.Fatalf("frame %d: %d intensities for %d points", i, len(fr.Intensity), len(fr.Cloud))
		}
	}
}

func TestTemporalKeyframeInterval(t *testing.T) {
	frames := staticFrames(t, 5)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableTemporal(2); err != nil {
		t.Fatal(err)
	}
	wantPredicted := []bool{false, true, false, true, false}
	var statted int
	w.OnStats = func(fs FrameStats) {
		if fs.Seq != uint64(statted) || fs.Predicted != wantPredicted[statted] {
			t.Errorf("position %d: frame %d predicted=%v, want %v", statted, fs.Seq, fs.Predicted, wantPredicted[statted])
		}
		statted++
	}
	for _, pc := range frames {
		if err := w.WriteFrame(pc, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if statted != len(frames) {
		t.Fatalf("OnStats fired %d times, want %d", statted, len(frames))
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("read %d frames, want 5", n)
	}
}

func TestTemporalInvalidInterval(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableTemporal(1); err == nil {
		t.Fatal("interval 1 accepted")
	}
}

// TestTemporalDrivingSequence: a moving sensor (the KITTI case). P-frames
// must stay correct; the temporal gain shrinks but correctness and the
// error bound hold.
func TestTemporalDrivingSequence(t *testing.T) {
	scene, err := lidar.NewScene(lidar.Road, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lidar.HDL64E()
	cfg.AzimuthSteps = 400
	var frames []geom.PointCloud
	for i := 0; i < 4; i++ {
		// 2 m/frame forward at 10 fps = 72 km/h.
		pose := lidar.Pose{X: float64(i) * 2, Yaw: 0.02 * float64(i)}
		frames = append(frames, cfg.SimulateAt(scene, int64(i+1), pose))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableTemporal(4); err != nil {
		t.Fatal(err)
	}
	for i, pc := range frames {
		if err := w.WriteFrame(pc, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		fr, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			if i != len(frames) {
				t.Fatalf("read %d frames, wrote %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		verifyAgainstOriginal(t, frames[i], fr.Cloud, 0.02)
	}
}
