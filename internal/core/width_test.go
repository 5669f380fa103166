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
	size                                 int
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
	o := outcome{size: len(data), data: sha(data)}
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
	// decode fails, partial decode keeps the other sections.
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
// same inputs. For the city and road frames, width 1 is also held to
// recorded hashes of the compressed bytes, the decoded points and the
// lane-box points, and to a size its frame may not exceed (parentBytes);
// TestCompressGolden pins the options this table does not run. The shards8
// and blockpack rows ask for the retired sharded and blockpacked dialects,
// which Compress refuses at every width. The paper
// rows' byte hashes were re-recorded when the θ streams' DEFLATE encoder
// went from level 9 to the smaller of Huffman-only and level 5, and their
// parentBytes is the frame's size before that. The v5 rows were re-recorded
// when ContextModel became the default and again when the v5 sparse stream
// took the forward-first order; their parentBytes is the same options' frame
// with ContextModel off plus the bytes the dialect adds (a dialect byte, a
// methods byte a radial group, a marker an occupancy stream), which choosing
// by price may never exceed. A change that means to alter a hash updates it
// here.
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
		name    string
		set     func(*Options)
		retired bool
	}{
		{"default", func(*Options) {}, false},
		{"exact", func(o *Options) { o.ExactClustering = true }, false},
		{"shards8", func(o *Options) { o.Shards = 8 }, true},
		{"blockpack", func(o *Options) { o.BlockPack = true }, true},
		{"paper", func(o *Options) { o.ContextModel = false }, false},
	}
	golden := map[string]struct {
		bytes, pts, lanePts string
		parentBytes         int
	}{
		"city/default": {"9895533e94a436e4d15367a2a2d8a7d0e0b6355d756544f4a7581143f85d6c7b", cityCtxPts, cityLane, 72195 + 8},
		"city/paper":   {"ea94f0aa41d9cd754588ca9e1bf7a6f2329aca9e99afd6bd820ea02de836213d", cityPts, cityLane, 72498},
		"road/default": {"beb2b7ed1ccb1f9ea73284034fed6390aefcdd6b388578b8d8ff171ed46da247", roadCtxPts, roadCtxLane, 82546 + 8},
		"road/paper":   {"65ecc49cb802db312f73c86dc0aee98750e42debe7fc91da81f7819cd423aa9a", roadPts, roadLane, 82741},
	}
	for _, in := range inputs {
		for _, d := range dialects {
			t.Run(in.name+"/"+d.name, func(t *testing.T) {
				opts := DefaultOptions(0.02)
				d.set(&opts)
				if d.retired {
					for _, procs := range partest.Widths {
						partest.At(procs, func() {
							if out, _, err := Compress(in.pc, opts); !errors.Is(err, ErrRetiredDialect) || out != nil {
								t.Errorf("GOMAXPROCS=%d: %d bytes, %v; want ErrRetiredDialect", procs, len(out), err)
							}
						})
					}
					return
				}
				var want outcome
				for i, procs := range partest.Widths {
					var got outcome
					partest.At(procs, func() { got = run(t, in.pc, opts) })
					if i == 0 {
						want = got
						if g, ok := golden[in.name+"/"+d.name]; ok {
							for _, f := range []struct{ name, got, want string }{
								{"compressed bytes", got.data, g.bytes},
								{"decoded points", got.points, g.pts},
								{"lane-box points", got.lane, g.lanePts},
							} {
								if f.got != f.want {
									t.Errorf("GOMAXPROCS=%d: %s sha256 %s, want %s", procs, f.name, f.got, f.want)
								}
							}
							if got.size > g.parentBytes {
								t.Errorf("GOMAXPROCS=%d: %d bytes, larger than the %d recorded", procs, got.size, g.parentBytes)
							}
						}
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
	data, _, err := Compress(citySector(t), DefaultOptions(0.02))
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
				t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(data))
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
			t.Errorf("GOMAXPROCS=%d: error classes over the prefixes differ from GOMAXPROCS=%d", procs, partest.Widths[0])
		}
	}
}
