package benchkit

import (
	"math"
	"testing"

	"dbgc/internal/lidar"
)

func TestFrameCaching(t *testing.T) {
	a, err := Frame(lidar.Road, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frame(lidar.Road, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("cached frame not reused")
	}
	c, err := Frame(lidar.Road, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == 0 || &c[0] == &a[0] {
		t.Fatal("different seed returned the same frame")
	}
	if _, err := Frame("nope", 1); err == nil {
		t.Fatal("unknown scene accepted")
	}
}

func TestFrames(t *testing.T) {
	fs, err := Frames(lidar.Road, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("got %d frames", len(fs))
	}
	if len(fs[0]) == 0 || len(fs[1]) == 0 {
		t.Fatal("empty frame")
	}
}

func TestRatioAndBandwidth(t *testing.T) {
	if r := Ratio(1000, 600); math.Abs(r-20) > 1e-12 {
		t.Fatalf("Ratio = %v, want 20", r)
	}
	if r := Ratio(10, 0); r != 0 {
		t.Fatalf("Ratio with zero bytes = %v", r)
	}
	// 75 kB per frame at 10 fps = 6 Mbps.
	if b := BandwidthMbps(75000, 10); math.Abs(b-6) > 1e-12 {
		t.Fatalf("BandwidthMbps = %v, want 6", b)
	}
}

func TestFig3SmallRadii(t *testing.T) {
	rows, err := Fig3(DefaultQ, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Ratio <= rows[1].Ratio {
		t.Fatalf("octree ratio should fall with radius: %.2f vs %.2f", rows[0].Ratio, rows[1].Ratio)
	}
	if rows[0].Density <= rows[1].Density {
		t.Fatalf("density should fall with radius")
	}
}

func TestFig10ClusteredNearOptimum(t *testing.T) {
	rows, clustered, err := Fig10(DefaultQ, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, r := range rows {
		if r.Ratio > best {
			best = r.Ratio
		}
	}
	if clustered < 0.9*best {
		t.Fatalf("clustered split ratio %.2f far below manual best %.2f", clustered, best)
	}
}
