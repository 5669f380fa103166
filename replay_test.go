package dbgc_test

import (
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
	partest.At(1, func() {
		data, stats, err := dbgc.Compress(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		enc, err := core.ReplayStages(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		replay := time.Since(t0)
		stages := sum(enc, "cluster.split", "octree.encode", "sparse.encode", "outlier.encode")
		within("compress", stages, replay)
		about("compress", stages, stats.DEN+stats.OCT+stats.COR+stats.ORG+stats.SPA+stats.OUT)
		if org := sum(enc, "polyline.organize"); org >= enc["sparse.encode"] {
			t.Errorf("polyline.organize %v is not inside sparse.encode %v", org, enc["sparse.encode"])
		}

		t0 = time.Now()
		if _, err := dbgc.Decompress(data); err != nil {
			t.Fatal(err)
		}
		full := time.Since(t0)
		t0 = time.Now()
		if _, err := dbgc.DecompressRegion(data, box); err != nil {
			t.Fatal(err)
		}
		region := time.Since(t0)
		t0 = time.Now()
		dec, err := core.ReplayDecode(data, box)
		if err != nil {
			t.Fatal(err)
		}
		replay = time.Since(t0)
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
