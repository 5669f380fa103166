package dbgc_test

import (
	"math"
	"testing"
	"time"

	"dbgc"
	"dbgc/internal/benchkit"
	"dbgc/internal/core"
	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
)

// TestReplayStages holds core.ReplayStages and core.ReplayDecode, which
// nothing outside this test calls until the benchmark's stage replay does,
// to the calls they replay, on one processor where stages cannot overlap:
// every stage BENCHMARK.json names is there and took time, the stages of a
// call add up to no more than the replay took and to most of it (what is
// left is gathers, framing, CRCs and the join), and to about what the call
// itself reports or takes — Stats' DEN + OCT + COR + ORG + SPA + OUT for
// Compress, wall time for the two decodes — a missing or doubled stage being
// far outside the factor of two the comparison of two separate runs allows.
// Every time compared is the fastest of a few runs: on a host shared with
// other work a run can be held off its processor for longer than a stage
// takes, and that says nothing about the stages.
func TestReplayStages(t *testing.T) {
	pc, err := benchkit.Frame(lidar.Road, 1)
	if err != nil {
		t.Fatal(err)
	}
	box := dbgc.AABB{Min: dbgc.Point{X: 5, Y: -5, Z: -3}, Max: dbgc.Point{X: 25, Y: 5, Z: 3}}
	opts := dbgc.DefaultOptions(0.02)
	sum := func(times core.StageTimes, names ...string) (total time.Duration) {
		for _, name := range names {
			if times[name] <= 0 {
				t.Errorf("stage %s took %v", name, times[name])
			}
			total += times[name]
		}
		return total
	}
	about := func(what string, stages, call time.Duration) {
		if stages < call/2 || stages > 2*call {
			t.Errorf("%s: stages add up to %v, the call to %v", what, stages, call)
		}
	}
	within := func(what string, stages, replay time.Duration) {
		if stages > replay || stages < replay*3/4 {
			t.Errorf("%s: stages add up to %v of a replay that took %v", what, stages, replay)
		}
	}
	const runs = 5
	// fastest times run runs times and returns the shortest wall time; keep
	// is told each time a run is the fastest so far.
	fastest := func(run func() (core.StageTimes, error), keep func(core.StageTimes)) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range runs {
			t0 := time.Now()
			times, err := run()
			took := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if took < best {
				best = took
				keep(times)
			}
		}
		return best
	}
	discard := func(core.StageTimes) {}
	partest.At(1, func() {
		var data []byte
		call := time.Duration(math.MaxInt64)
		for range runs {
			out, stats, err := dbgc.Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			data = out
			call = min(call, stats.DEN+stats.OCT+stats.COR+stats.ORG+stats.SPA+stats.OUT)
		}
		var enc core.StageTimes
		replay := fastest(func() (core.StageTimes, error) { return core.ReplayStages(pc, opts) },
			func(times core.StageTimes) { enc = times })
		stages := sum(enc, "cluster.split", "octree.encode", "sparse.encode", "outlier.encode")
		within("compress", stages, replay)
		about("compress", stages, call)
		if org := sum(enc, "polyline.organize"); org >= enc["sparse.encode"] {
			t.Errorf("polyline.organize %v is not inside sparse.encode %v", org, enc["sparse.encode"])
		}

		full := fastest(func() (core.StageTimes, error) {
			_, err := dbgc.Decompress(data)
			return nil, err
		}, discard)
		region := fastest(func() (core.StageTimes, error) {
			_, err := dbgc.DecompressRegion(data, box)
			return nil, err
		}, discard)
		var dec core.StageTimes
		replay = fastest(func() (core.StageTimes, error) { return core.ReplayDecode(data, box) },
			func(times core.StageTimes) { dec = times })
		fullStages := sum(dec, "octree.decode", "sparse.decode", "outlier.decode")
		regionStages := sum(dec, "octree.region", "sparse.region", "outlier.region")
		within("decode and region decode", fullStages+regionStages, replay)
		about("decode", fullStages, full)
		about("region decode", regionStages, region)
	})
	if _, err := core.ReplayDecode([]byte("DBGC"), box); err == nil {
		t.Error("a truncated frame replays without error")
	}
}
