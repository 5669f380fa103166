package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dbgc"
	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/varint"
)

func testFrames(t *testing.T, n int) []geom.PointCloud {
	t.Helper()
	scene, err := lidar.NewScene(lidar.Road, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lidar.HDL64E()
	cfg.AzimuthSteps = 300 // small frames keep the test fast
	out := make([]geom.PointCloud, n)
	for i := range out {
		out[i] = cfg.Simulate(scene, int64(i+1))
	}
	return out
}

func TestStreamRoundTrip(t *testing.T) {
	frames := testFrames(t, 3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	var statted int
	w.OnStats = func(fs FrameStats) {
		if fs.Seq != uint64(statted) || fs.Points != len(frames[statted]) || fs.GeometryBytes == 0 || fs.Ratio == 0 {
			t.Errorf("frame %d stats wrong: %+v", statted, fs)
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
	if r.Q() != 0.02 || r.FPS() != 10 {
		t.Fatalf("header: q=%v fps=%v", r.Q(), r.FPS())
	}
	bound := math.Sqrt(3) * 0.02 * 1.0001
	for i := 0; ; i++ {
		fr, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			if i != len(frames) {
				t.Fatalf("read %d frames, wrote %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Cloud) != len(frames[i]) {
			t.Fatalf("frame %d: %d points, want %d", i, len(fr.Cloud), len(frames[i]))
		}
		if fr.Intensity != nil {
			t.Fatalf("frame %d: unexpected intensity channel", i)
		}
		// Spot-check a few points against the sorted original within the
		// bound by nearest distance (the mapping is not carried in the
		// container, so exact pairing is not available here).
		for j := 0; j < len(fr.Cloud); j += 997 {
			best := math.Inf(1)
			for k := 0; k < len(frames[i]); k += 1 {
				if d := fr.Cloud[j].Dist(frames[i][k]); d < best {
					best = d
				}
			}
			if best > bound {
				t.Fatalf("frame %d point %d: nearest original %v away", i, j, best)
			}
		}
	}
	// Second read past EOF keeps returning EOF.
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestStreamWithIntensity(t *testing.T) {
	frames := testFrames(t, 2)
	rng := rand.New(rand.NewSource(4))
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	w.OnStats = func(fs FrameStats) {
		if fs.IntensityBytes == 0 {
			t.Error("intensity channel missing from stats")
		}
	}
	intens := make([][]float32, len(frames))
	for i, pc := range frames {
		intens[i] = make([]float32, len(pc))
		for j := range intens[i] {
			intens[i][j] = rng.Float32()
		}
		if err := w.WriteFrame(pc, intens[i]); err != nil {
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
	for i := range frames {
		fr, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(fr.Intensity) != len(fr.Cloud) {
			t.Fatalf("frame %d: %d intensities for %d points", i, len(fr.Intensity), len(fr.Cloud))
		}
		for _, v := range fr.Intensity {
			if v < 0 || v > 1 {
				t.Fatalf("intensity %v out of range", v)
			}
		}
	}
}

func TestWriterClosedRejectsFrames(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if err := w.WriteFrame(geom.PointCloud{{X: 1}}, nil); err == nil {
		t.Fatal("write after close accepted")
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := NewWriter(io.Discard, dbgc.Options{}, 0); err == nil {
		t.Fatal("zero options accepted")
	}
}

// oversizedHeader is a 31-byte container whose first frame declares a
// 255 MiB geometry section and then breaks off.
func oversizedHeader() []byte {
	b := append([]byte("DBGS"), version)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.02))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(10))
	b = append(b, markerFrame, 0, frameI)
	b = varint.AppendUint(b, 255<<20)
	return append(b, 1, 2, 3)
}

// TestDeclaredLengthCostsNothing: a section length the stream does not back
// up with bytes is refused outright when it is over the reader's section
// limit, and otherwise read in steps — neither allocates what it declares.
func TestDeclaredLengthCostsNothing(t *testing.T) {
	read := func(limits dbgc.DecodeLimits) (err error, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewReader(bytes.NewReader(oversizedHeader()))
		if err != nil {
			t.Fatal(err)
		}
		r.SetLimits(limits)
		_, err = r.ReadFrame()
		runtime.ReadMemStats(&after)
		return err, after.TotalAlloc - before.TotalAlloc
	}
	err, allocated := read(dbgc.DecodeLimits{MaxSectionBytes: 1 << 20, MemBudget: 1 << 20})
	if !errors.Is(err, declimits.ErrLimit) {
		t.Errorf("a 255 MiB section under a 1 MiB section limit: %v, want a limit error", err)
	}
	if allocated > 4<<20 {
		t.Errorf("refusing the section allocated %d bytes", allocated)
	}
	err, allocated = read(dbgc.DecodeLimits{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a section that breaks off: %v, want unexpected EOF", err)
	}
	if allocated > 4<<20 {
		t.Errorf("reading 3 of 255 Mi declared bytes allocated %d bytes", allocated)
	}
}

func TestCorruptContainer(t *testing.T) {
	frames := testFrames(t, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, dbgc.DefaultOptions(0.02), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(frames[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bit flip in the frame body must trip the CRC.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x01
	r, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrame(); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	// Truncations never panic.
	for cut := 0; cut < len(raw); cut += 503 {
		r, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue
		}
		for {
			if _, err := r.ReadFrame(); err != nil {
				break
			}
		}
	}
}
