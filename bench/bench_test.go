package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
	if v[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50}} {
		v := ramp(c.n)
		p, val := tail(v)
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, p, c.wantP)
		}
		if !near(val, percentile(v, c.wantP)) {
			t.Errorf("n=%d: tail value %v, want %v", c.n, val, percentile(v, c.wantP))
		}
	}
}

// iqrShare follows Python's statistics.quantiles(v, n=4):
// quantiles(range(1, 11)) == [2.75, 5.5, 8.25].
func TestIQRShare(t *testing.T) {
	if got, want := iqrShare(ramp(10)), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// quantiles([10, 11, 13, 20]) == [10.25, 12.0, 18.25]
	if got, want := iqrShare([]float64{20, 10, 13, 11}), (18.25-10.25)/12; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if iqrShare([]float64{5}) != 0 {
		t.Error("one sample has no spread")
	}
}

func TestSamples(t *testing.T) {
	var s samples
	// Scaled: input 0 reads 12, 10, 50; input 1 reads 30, 90; input 2 reads
	// 25, 20 (measured at half speed: raw 50, 40 scaled by 0.5).
	for _, x := range []struct {
		in         int
		raw, scale float64
	}{{0, 12, 1}, {1, 30, 1}, {2, 50, 0.5}, {0, 10, 1}, {1, 90, 1}, {2, 40, 0.5}, {0, 50, 1}} {
		s.add(x.in, x.raw, x.scale)
	}
	if got := s.typical(); got != 22.5 {
		t.Errorf("typical = %v, want the median 22.5 of the per-input medians 12, 60, 22.5", got)
	}
	if len(s.all) != 7 || s.all[2] != 50 {
		t.Errorf("all must keep the 7 raw samples, got %v", s.all)
	}
}

// A bracket scales by the mean of the kernel runs on either side of the
// work, and reuses a fresh closing run as the next opening one.
func TestRefBracket(t *testing.T) {
	var c refClock
	ran := false
	scale := c.bracket(func() { ran = true })
	if !ran || len(c.all) != 2 {
		t.Fatalf("first bracket: ran=%v, %d kernel runs, want 2", ran, len(c.all))
	}
	if want := refNominalMS / ((c.all[0] + c.all[1]) / 2); !near(scale, want) {
		t.Errorf("scale %v, want %v", scale, want)
	}
	c.bracket(func() {})
	if len(c.all) != 3 {
		t.Errorf("a fresh closing run must open the next bracket: %d kernel runs, want 3", len(c.all))
	}
	c.lastAt = c.lastAt.Add(-2 * refStale)
	c.bracket(func() {})
	if len(c.all) != 5 {
		t.Errorf("a stale run must not open a bracket: %d kernel runs, want 5", len(c.all))
	}
}

// The yardstick appends to both logs of a chain on every round trip, reports
// the mean of the readings on either side of the work, and reuses a fresh
// closing reading as the next opening one.
func TestYardstick(t *testing.T) {
	dir := t.TempDir()
	y, err := newYardstick(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	got, err := y.bracket(func() { ran = true })
	if err != nil || !ran || len(y.all) != 2 {
		t.Fatalf("first bracket: err=%v ran=%v, %d readings, want 2", err, ran, len(y.all))
	}
	if want := (y.all[0] + y.all[1]) / 2; !near(got, want) {
		t.Errorf("bracket read %v, want the mean %v of the readings around it", got, want)
	}
	if _, err := y.bracket(func() {}); err != nil || len(y.all) != 3 {
		t.Errorf("a fresh closing reading must open the next bracket: err=%v, %d readings, want 3", err, len(y.all))
	}
	// In parallel every chain makes the round trips, otherwise the first only.
	y.parallel = true
	if _, err := y.read(); err != nil {
		t.Fatal(err)
	}
	if err := y.close(); err != nil {
		t.Fatal(err)
	}
	for name, readings := range map[string]int64{"0a": 4, "0b": 4, "1a": 1, "1b": 1} {
		fi, err := os.Stat(filepath.Join(dir, name, "ioref.log"))
		if err != nil {
			t.Fatal(err)
		}
		if want := readings * yardOps * ioRefBytes; fi.Size() != want {
			t.Errorf("log %s holds %d bytes, want %d", name, fi.Size(), want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 1, Name: "d", Start: 200, End: 300}, // outside: covers nothing
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

// Replayed stages are laid back to back inside their parent, so the parent's
// self time is its duration minus the stages.
func TestReplayLayout(t *testing.T) {
	tr := newTracer()
	start := tr.t0.Add(time.Millisecond)
	parent := tr.add(0, "f", "core.compress", start, start.Add(100*time.Millisecond))
	r := tr.replayUnder(parent, "f", start)
	r.stage("cluster.split", 40*time.Millisecond)
	sparse := r.stage("sparse.encode", 30*time.Millisecond)
	tr.add(sparse, "f", "polyline.organize", start.Add(40*time.Millisecond), start.Add(50*time.Millisecond))
	self := selfTimes(tr.spans)
	if got := self[parent]; got != 30*time.Millisecond {
		t.Errorf("compress self %v, want 30ms", got)
	}
	if got := self[sparse]; got != 20*time.Millisecond {
		t.Errorf("sparse self %v, want 20ms", got)
	}
	dur, selfMS := byName(tr.spans)
	if !near(dur["cluster.split"][0], 40) || !near(selfMS["core.compress"][0], 30) {
		t.Errorf("byName: %v %v", dur, selfMS)
	}
	var none *tracer
	ran := false
	none.timed("f", "x", func() { ran = true })
	if none.add(0, "f", "x", start, start) != 0 || !ran {
		t.Error("a nil tracer must record nothing and still run the work")
	}
}

func TestLinkSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Frame: "t/1", Name: "ack", Start: 0, End: 100},
		{ID: 2, Frame: "t/1", Name: "ack", Start: 300, End: 400}, // a retransmit of the same frame
		{ID: 3, Frame: "t/1", Name: "handler", Start: 310, End: 390},
		{ID: 4, Frame: "t/1", Name: "store.append", Start: 320, End: 330},
		{ID: 5, Frame: "t/2", Name: "store.append", Start: 320, End: 330}, // no handler of its frame
	}
	linkSpans(spans, serviceParents)
	if spans[2].Parent != 2 {
		t.Errorf("handler hangs under %d, want the overlapping ack 2", spans[2].Parent)
	}
	if spans[3].Parent != 3 {
		t.Errorf("append hangs under %d, want 3", spans[3].Parent)
	}
	if spans[4].Parent != 0 || spans[0].Parent != 0 {
		t.Error("spans without a candidate parent must stay roots")
	}
}

// The open-loop schedule depends on the start and the index only: a late
// frame does not move the frames after it.
func TestDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	interval := time.Second / pacedRate
	for i, want := range []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond} {
		if got := dueTime(start, interval, i).Sub(start); got != want {
			t.Errorf("frame %d due after %v, want %v", i, got, want)
		}
	}
	if got := dueTime(start, interval, pacedRate*15).Sub(start); got != 15*time.Second {
		t.Errorf("frame %d due after %v, want 15s", pacedRate*15, got)
	}
}

func TestRotationIsAPermutationOfTheSeed(t *testing.T) {
	a, b := rotation(8, 7), rotation(8, 7)
	seen := make(map[int]bool)
	for i, x := range a {
		seen[x] = true
		if b[i] != x {
			t.Fatal("same seed, different rotation")
		}
	}
	if len(seen) != 8 {
		t.Fatalf("rotation %v is not a permutation", a)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "frame_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "compression_ratio", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	for _, c := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(95), "ok"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(150), "ok"},
		{lower, steady(100), []float64{80, 90, 115, 140, 150}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

// The tables in main.go and BENCHMARK.json name the same metrics with the
// same units, and every workload of one is a workload of the other.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []specMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics in main.go, %d in BENCHMARK.json", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: main.go has %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in main.go", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, main.go does not", w.Name)
		}
	}
}

// Two frames, two iterations of every workload, untraced and traced: every
// operation succeeds and every metric of BENCHMARK.json is emitted.
func TestWorkloadSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/e2e"
			want := spec.EndToEnd
			if trace {
				name, want = w.Name+"/trace", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				r, _, err := execute(runConfig{workload: w.Name, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), frames: 2, iters: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("%s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s emitted in %s, want %s", m.Name, got.Unit, m.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
					}
				}
				if trace && len(r.Spans) == 0 {
					t.Error("traced run kept no spans")
				}
			})
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, frameMS []float64) string {
		path := dir + "/" + name
		for _, v := range frameMS {
			r := row{stamp: stamp{Workload: "codec_city"}, resultLine: resultLine{Metrics: map[string]metricValue{"frame_ms": {Value: v, Unit: "ms"}}}}
			if err := appendRow(path, r); err != nil {
				t.Fatal(err)
			}
		}
		// A traced row is skipped.
		if err := appendRow(path, row{stamp: stamp{Workload: "codec_city", Trace: true}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100, 100})
	b := write("b.jsonl", []float64{140, 141, 139, 140, 140})
	var buf bytes.Buffer
	worse, err := compareFiles(&buf, "../BENCHMARK.json", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(buf.String(), "worse") {
		t.Errorf("40%% slower must read worse:\n%s", buf.String())
	}
	buf.Reset()
	if worse, err = compareFiles(&buf, "../BENCHMARK.json", a, a); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}
