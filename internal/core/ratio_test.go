package core

import (
	"fmt"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// TestRatioSmoke is the ratio regression guard that runs under `make
// check`: the reference city frame must compress at or above 21.0 with
// defaults — the ratio the per-stream coder choice brought when it became
// the default (21.12; 20.58 with the paper's coders, which are held to the
// 20.4 the perf PRs were held to). A perf change that silently trades ratio
// for speed fails here, not in a quarterly bench run.
func TestRatioSmoke(t *testing.T) {
	pc := frame(t, lidar.City)
	ratio := func(data []byte) float64 {
		return float64(len(pc)*12) / float64(len(data))
	}
	def, _ := defaultFrame(t, lidar.City)
	if r := ratio(def); r < 21.0 {
		t.Errorf("default compression ratio %.2f below the 21.0 floor", r)
	}
	paper, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if r := ratio(paper); r < 20.4 {
		t.Errorf("compression ratio with the paper's coders %.2f below the 20.4 floor", r)
	}
	t.Logf("city frame ratios: defaults %.2f, the paper's coders %.2f", ratio(def), ratio(paper))
}

// bothDialects compresses pc under opts with ContextModel on and off and
// returns the two frames' sizes and the marker bytes the first carries over
// the second: the dialect byte, a methods byte a radial group, and the
// occupancy method marker of the dense section.
func bothDialects(t *testing.T, pc geom.PointCloud, opts Options) (def, paper, markers int) {
	t.Helper()
	opts.ContextModel = true
	d, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ContextModel = false
	p, _, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	lay, err := Inspect(d)
	if err != nil {
		t.Fatal(err)
	}
	return len(d), len(p), 1 + lay.Groups + 1
}

// TestDefaultNeverLargerThanPaper is what became of "enabling ContextModel
// never enlarges a stream" now that a stream's coder is chosen by price and
// not by coding it every way: on the four reference scenes, the four layouts
// of each the benchmark compresses (bench/frames.go: layout l under sensor
// seed 1009·seed + l), the default frame is never larger than the frame of
// the paper's coders plus its marker bytes. That it is within 0.2% of the
// frame an exact competition would emit is internal/sparse's
// TestChooserOnScenes.
func TestDefaultNeverLargerThanPaper(t *testing.T) {
	for _, kind := range []lidar.SceneKind{lidar.City, lidar.Road, lidar.Campus, lidar.Residential} {
		for layout := int64(1); layout <= 4; layout++ {
			scene, err := lidar.NewScene(kind, layout)
			if err != nil {
				t.Fatal(err)
			}
			pc := lidar.HDL64E().Simulate(scene, 1009+layout)
			def, paper, markers := bothDialects(t, pc, DefaultOptions(0.02))
			if def > paper+markers {
				t.Errorf("%s layout %d: default frame %d bytes, the paper's coders %d + %d marker bytes", kind, layout, def, paper, markers)
			}
		}
	}
}

// TestRatioAdmission is ROADMAP's ratio admission rule for the gain the
// default dialect claims over the paper's coders: it has to show, sign and
// rough size, on every sensor the simulator has and at half and twice the
// HDL-64E's range noise, or it is a property of one simulated sensor. The
// default frame is at most 0.985 of the paper-coded frame on every row
// (measured: 0.962 to 0.980).
func TestRatioAdmission(t *testing.T) {
	noise := func(sigma float64) lidar.SensorConfig {
		s := lidar.HDL64E()
		s.RangeNoiseSigma = sigma
		return s
	}
	for _, sensor := range []struct {
		name string
		cfg  lidar.SensorConfig
	}{
		{"HDL-64E σ=1cm", noise(0.01)},
		{"HDL-64E σ=2cm", noise(0.02)},
		{"HDL-64E σ=4cm", noise(0.04)},
		{"HDL-32E", lidar.HDL32E()},
		{"VLP-16", lidar.VLP16()},
	} {
		for _, kind := range []lidar.SceneKind{lidar.City, lidar.Road} {
			t.Run(fmt.Sprintf("%s/%s", sensor.name, kind), func(t *testing.T) {
				scene, err := lidar.NewScene(kind, 1)
				if err != nil {
					t.Fatal(err)
				}
				pc := sensor.cfg.Simulate(scene, 1)
				opts := DefaultOptions(0.02)
				opts.UTheta, opts.UPhi = sensor.cfg.Meta().UTheta(), sensor.cfg.Meta().UPhi()
				def, paper, _ := bothDialects(t, pc, opts)
				t.Logf("default %d bytes, the paper's coders %d: %.3f", def, paper, float64(def)/float64(paper))
				if float64(def) > 0.985*float64(paper) {
					t.Errorf("default frame %d bytes is %.3f of the paper-coded %d, want at most 0.985", def, float64(def)/float64(paper), paper)
				}
			})
		}
	}
}
