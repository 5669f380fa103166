package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// temporalArchive is a container from before P-frames were retired: six
// frames, I P P I P P.
const temporalArchive = "../../internal/stream/testdata/temporal3.dbgs"

const testQ = 0.02

// writeFrames simulates n small frames with an intensity channel into dir
// as 000000.bin, 000001.bin, ... and returns the clouds and intensities.
func writeFrames(t *testing.T, dir string, n int) ([]dbgc.PointCloud, [][]float32) {
	t.Helper()
	scene, err := lidar.NewScene(lidar.Road, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lidar.HDL64E()
	cfg.AzimuthSteps = 300 // small frames keep the test fast
	clouds := make([]dbgc.PointCloud, n)
	intens := make([][]float32, n)
	for i := range clouds {
		clouds[i] = cfg.Simulate(scene, int64(i+1))
		intens[i] = make([]float32, len(clouds[i]))
		for j := range intens[i] {
			intens[i][j] = float32((i+j)%256) / 255
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%06d.bin", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := lidar.WriteBinWithIntensity(f, clouds[i], intens[i]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return clouds, intens
}

// stdout runs f and returns what it printed.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-printed
}

// readFrame loads one unpacked frame.
func readFrame(t *testing.T, dir string, seq int) (dbgc.PointCloud, []float32) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, fmt.Sprintf("%06d.bin", seq)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pc, intens, err := lidar.ReadBinWithIntensity(f)
	if err != nil {
		t.Fatal(err)
	}
	return pc, intens
}

// TestPackUnpack drives runPack and runUnpack the way the command line does.
func TestPackUnpack(t *testing.T) {
	in := t.TempDir()
	clouds, intens := writeFrames(t, in, 3)
	packed := filepath.Join(t.TempDir(), "drive.dbgs")
	var packErr error
	log := stdout(t, func() { packErr = runPack([]string{"-q", fmt.Sprint(testQ), "-intensity", in, packed}) })
	if packErr != nil {
		t.Fatal(packErr)
	}
	for i := range clouds {
		if want := fmt.Sprintf("%06d.bin: %d points", i, len(clouds[i])); !strings.Contains(log, want) {
			t.Errorf("pack log lacks %q:\n%s", want, log)
		}
	}
	data, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped byte in the middle of the container, which is inside the
	// middle frame's geometry.
	damaged := filepath.Join(t.TempDir(), "damaged.dbgs")
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		args  []string // before the container and the output directory
		input string
		check func(t *testing.T, out, log string, err error)
	}{
		{"round trip holds the error bound", nil, packed, func(t *testing.T, out, log string, err error) {
			if err != nil {
				t.Fatal(err)
			}
			// The .bin format stores float32 coordinates.
			bound := math.Sqrt(3)*testQ*1.0001 + 1e-4
			for i, orig := range clouds {
				pc, got := readFrame(t, out, i)
				if len(pc) != len(orig) {
					t.Fatalf("frame %d: %d points, packed %d", i, len(pc), len(orig))
				}
				for j := 0; j < len(pc); j += 997 {
					best := math.Inf(1)
					for _, p := range orig {
						best = min(best, pc[j].Dist(p))
					}
					if best > bound {
						t.Fatalf("frame %d point %d: nearest original %v away", i, j, best)
					}
				}
				// Intensities come back in decode order: compare as multisets.
				want := slices.Clone(intens[i])
				slices.Sort(want)
				slices.Sort(got)
				for j := range want {
					if math.Abs(float64(want[j]-got[j])) > 1.0/255 {
						t.Fatalf("frame %d: %d-th smallest intensity %v, packed %v", i, j, got[j], want[j])
					}
				}
			}
		}},
		{"a damaged frame aborts", nil, damaged, func(t *testing.T, out, log string, err error) {
			if err == nil {
				t.Fatalf("unpacked a damaged container:\n%s", log)
			}
		}},
		{"-partial reports the damaged frame and writes the rest", []string{"-partial"}, damaged, func(t *testing.T, out, log string, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(log, "000001.bin") || strings.Count(log, "damaged:") != 1 ||
				!strings.Contains(log, "unpacked 3 frames, 1 damaged") {
				t.Errorf("unpack log:\n%s", log)
			}
			for _, i := range []int{0, 2} {
				if pc, _ := readFrame(t, out, i); len(pc) != len(clouds[i]) {
					t.Errorf("frame %d beside the damage: %d points, packed %d", i, len(pc), len(clouds[i]))
				}
			}
			if pc, _ := readFrame(t, out, 1); len(pc) >= len(clouds[1]) {
				t.Errorf("damaged frame came back with all %d points", len(pc))
			}
		}},
		{"-partial writes an old archive's P-frames empty and names why", []string{"-partial"}, temporalArchive, func(t *testing.T, out, log string, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if strings.Count(log, "damaged: "+stream.ErrPredictedFrame.Error()) != 4 ||
				!strings.Contains(log, "unpacked 6 frames, 4 damaged") {
				t.Errorf("unpack log:\n%s", log)
			}
			for i := range 6 {
				pc, _ := readFrame(t, out, i)
				if iframe := i%3 == 0; iframe != (len(pc) > 0) {
					t.Errorf("frame %d: %d points", i, len(pc))
				}
			}
		}},
		{"-max-points 1 refuses", []string{"-max-points", "1"}, packed, func(t *testing.T, out, log string, err error) {
			if !errors.Is(err, dbgc.ErrDecodeLimit) {
				t.Fatalf("err %v, want a decode-limit error", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := t.TempDir()
			var err error
			log := stdout(t, func() { err = runUnpack(append(c.args, c.input, out)) })
			c.check(t, out, log, err)
		})
	}
}

// TestPackLeavesNoTruncatedContainer: a frame that cannot be read fails the
// pack, and the output started beside the good frames is removed.
func TestPackLeavesNoTruncatedContainer(t *testing.T) {
	in := t.TempDir()
	writeFrames(t, in, 2)
	// Seven bytes are not a whole record.
	if err := os.WriteFile(filepath.Join(in, "000002.bin"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	packed := filepath.Join(t.TempDir(), "drive.dbgs")
	var err error
	stdout(t, func() { err = runPack([]string{in, packed}) })
	if err == nil || !strings.Contains(err.Error(), "000002.bin") {
		t.Fatalf("err %v, want one naming the unreadable frame", err)
	}
	if _, err := os.Stat(packed); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("output left behind after a failed pack (stat: %v)", err)
	}
}
