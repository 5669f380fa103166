package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/octree"
	"dbgc/internal/par/partest"
	"dbgc/internal/sparse"
)

// citySector returns the points of the city frame whose azimuth
// atan2(y, x)+π lies in [10, 11)·2π/25: the 4972-point cloud the checked-in
// golden vectors were compressed from. About half of it is dense, and it is
// small enough to decode at every prefix.
func citySector(t testing.TB) geom.PointCloud {
	t.Helper()
	var pc geom.PointCloud
	for _, p := range frame(t, lidar.City) {
		if a := (math.Atan2(p.Y, p.X) + math.Pi) * 25 / (2 * math.Pi); a >= 10 && a < 11 {
			pc = append(pc, p)
		}
	}
	if len(pc) != 4972 {
		t.Fatalf("city sector has %d points, want 4972", len(pc))
	}
	return pc
}

// errClass is what of a decode error may not depend on GOMAXPROCS: whether
// there is one, and whether it says "too expensive" or "corrupt". (The
// text may: sections share one budget, so which of them finds it spent
// depends on the order they charge it in.)
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrLimit):
		return "limit"
	case errors.Is(err, ErrCorrupt), errors.Is(err, octree.ErrCorrupt), errors.Is(err, sparse.ErrCorrupt):
		return "corrupt"
	default:
		return "other"
	}
}

// outcome is everything one run of the codec over one input yields.
type outcome struct {
	data, mapping, points, lane, partial string
	reports, failures                    []string
}

// run compresses pc under opts and decodes the frame every way the package
// offers, intact and damaged, returning hashes and error classes.
func run(t *testing.T, pc geom.PointCloud, opts Options) outcome {
	t.Helper()
	data, stats, err := Compress(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	o.data = sha(data)
	mapping := make([]byte, 0, 4*len(stats.Mapping))
	for _, m := range stats.Mapping {
		mapping = append(mapping, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	o.mapping = sha(mapping)
	back, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	o.points = pointsSHA(back)
	lane, err := DecompressRegion(data, laneBox)
	if err != nil {
		t.Fatal(err)
	}
	o.lane = pointsSHA(lane)

	// One byte flipped in the middle of the sparse section: whole-frame
	// decode fails, partial decode keeps the other sections and, where
	// groups carry CRCs, the other groups.
	damaged := bytes.Clone(data)
	c, err := parseContainer(damaged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp := c.sec[SectionSparse].payload; len(sp) > 0 {
		sp[len(sp)/2] ^= 0xff
	}
	part, reports, err := DecompressPartial(damaged, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o.partial = pointsSHA(part)
	for _, r := range reports {
		o.reports = append(o.reports, fmt.Sprintf("%s %dB %dpts %s", r.Section, r.Bytes, r.Points, errClass(r.Err)))
	}

	// The damaged frame, three cuts, and the limit table of harden_test.go
	// (its truncation sweep is TestTruncationWidthInvariance).
	fail := func(name string, err error) {
		o.failures = append(o.failures, name+": "+errClass(err))
	}
	_, err = Decompress(damaged)
	fail("damaged", err)
	_, err = DecompressRegion(damaged, laneBox)
	fail("damaged region", err)
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 1} {
		_, err = Decompress(data[:cut])
		fail(fmt.Sprintf("cut %d", cut), err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, l := range []struct {
		name string
		lim  DecodeLimits
	}{
		{"MaxPoints=16", DecodeLimits{MaxPoints: 16}},
		{"MaxSectionBytes=8", DecodeLimits{MaxSectionBytes: 8}},
		{"MemBudget=64", DecodeLimits{MemBudget: 64}},
		{"MaxNodes=64", DecodeLimits{MaxNodes: 64}},
		{"cancelled", DecodeLimits{Ctx: cancelled}},
		{"default", DefaultDecodeLimits()},
	} {
		_, err = DecompressWith(data, DecompressOptions{Limits: l.lim})
		fail(l.name, err)
		_, err = DecompressRegionWith(data, laneBox, DecompressOptions{Limits: l.lim})
		fail(l.name+" region", err)
		_, _, err = DecompressPartial(damaged, DecompressOptions{Limits: l.lim})
		fail(l.name+" partial", err)
	}
	return o
}

// TestWidthInvariance is the contract that lets the codec use whatever
// cores it is given without an option: compressed bytes, Stats.Mapping,
// decoded points, lane-box points, partial-decode clouds and reports, and
// the class of every decode error are the same at every GOMAXPROCS. Widths
// 1 (everything inline), 2 (the benchmark host), 3 (chunks that do not
// divide evenly) and 8 (more workers than most stages have chunks) run the
// same inputs; TestCompressGolden ties width 1 and 4 to recorded hashes.
func TestWidthInvariance(t *testing.T) {
	inputs := []struct {
		name string
		pc   geom.PointCloud
	}{
		{"city", frame(t, lidar.City)},
		{"road", frame(t, lidar.Road)},
		{"sector", citySector(t)},
	}
	dialects := []struct {
		name string
		set  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"exact", func(o *Options) { o.ExactClustering = true }},
		{"shards8", func(o *Options) { o.Shards = 8 }},
		{"blockpack", func(o *Options) { o.BlockPackForce = true }},
		{"paper", func(o *Options) { o.ContextModel = false }},
	}
	for _, in := range inputs {
		for _, d := range dialects {
			t.Run(in.name+"/"+d.name, func(t *testing.T) {
				opts := DefaultOptions(0.02)
				d.set(&opts)
				var want outcome
				for i, procs := range partest.Widths {
					var got outcome
					partest.At(procs, func() { got = run(t, in.pc, opts) })
					if i == 0 {
						want = got
						continue
					}
					for _, f := range []struct{ name, got, want string }{
						{"compressed bytes", got.data, want.data},
						{"Stats.Mapping", got.mapping, want.mapping},
						{"decoded points", got.points, want.points},
						{"lane-box points", got.lane, want.lane},
						{"partial cloud", got.partial, want.partial},
					} {
						if f.got != f.want {
							t.Errorf("GOMAXPROCS=%d: %s differ from GOMAXPROCS=%d", procs, f.name, partest.Widths[0])
						}
					}
					if !slices.Equal(got.reports, want.reports) {
						t.Errorf("GOMAXPROCS=%d: partial reports %q, at GOMAXPROCS=%d %q", procs, got.reports, partest.Widths[0], want.reports)
					}
					if !slices.Equal(got.failures, want.failures) {
						t.Errorf("GOMAXPROCS=%d: decode errors %q, at GOMAXPROCS=%d %q", procs, got.failures, partest.Widths[0], want.failures)
					}
				}
			})
		}
	}
}

// TestTruncationWidthInvariance decodes every prefix of the sector frame,
// whole and by region, at each width: a torn frame fails, and fails the
// same way, however many workers read it.
func TestTruncationWidthInvariance(t *testing.T) {
	for _, shards := range []int{1, 8} {
		opts := DefaultOptions(0.02)
		opts.Shards = shards
		data, _, err := Compress(citySector(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		lim := DecompressOptions{Limits: DecodeLimits{MaxPoints: 1 << 20, MaxNodes: 1 << 24, MemBudget: 256 << 20}}
		classes := func() []string {
			out := make([]string, 0, 2*len(data))
			for i := 0; i < len(data); i++ {
				_, err := DecompressWith(data[:i], lim)
				_, rerr := DecompressRegionWith(data[:i], laneBox, lim)
				if err == nil || rerr == nil {
					t.Fatalf("shards=%d: prefix of %d/%d bytes decoded without error", shards, i, len(data))
				}
				out = append(out, errClass(err), errClass(rerr))
			}
			return out
		}
		var want []string
		for i, procs := range partest.Widths {
			var got []string
			partest.At(procs, func() { got = classes() })
			if i == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("shards=%d GOMAXPROCS=%d: error classes over the prefixes differ from GOMAXPROCS=%d", shards, procs, partest.Widths[0])
			}
		}
	}
}
