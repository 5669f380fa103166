package sparse

import (
	"fmt"
	"testing"

	"dbgc/internal/lidar"
	"dbgc/internal/streamcodec"
)

// TestChooserOnScenes holds internal/streamcodec's chooser to the exact
// competition it replaced, on every competing stream of the city, road,
// campus and residential frames under the default dialect:
// per stream class and frame the chosen codings are within 0.2% of the
// smallest ones (which keeps the frame within 0.2% of the exact-smallest
// frame); wherever the smallest rival is 1% clear of the chosen one they
// are the same; and no stream of 256 elements or more (ISSUE 26 allowed
// 4 Ki) is coded more than once — a count, not a timer.
func TestChooserOnScenes(t *testing.T) {
	classes := []struct {
		name  string
		class streamcodec.Class
		of    func(groupStreams) []int64
	}{
		{"theta heads", streamcodec.ThetaHeads, func(g groupStreams) []int64 { return g.dThetaHeads }},
		{"theta tails", streamcodec.ThetaTails, func(g groupStreams) []int64 { return g.thetaTails }},
		{"phi tails", streamcodec.Bulk, func(g groupStreams) []int64 { return g.phiTails }},
	}
	for _, f := range sparseFrames(t, lidar.City, lidar.Road, lidar.Campus, lidar.Residential) {
		opts := f.opts
		opts.Context = true
		var chosen, smallest [3]int
		priced := 0
		for gi, g := range collectStreams(f.pc, f.idx, opts) {
			for ci, c := range classes {
				vs := c.of(g)
				what := fmt.Sprintf("%s group %d %s (%d elements)", f.kind, gi, c.name, len(vs))
				got, marker, codings := streamcodec.AppendSmallestInts(nil, c.class, vs)
				if codings != g.codings[ci] {
					t.Fatalf("%s: %d codings, the encoder took %d", what, codings, g.codings[ci])
				}
				if len(vs) >= 4<<10 {
					priced++
					if codings != 1 {
						t.Errorf("%s: coded %d times", what, codings)
					}
				}
				best := len(got)
				for _, m := range c.class.Rivals() {
					if m != marker {
						best = min(best, len(streamcodec.AppendInts(nil, c.class.Marked(m), vs)))
					}
				}
				if 100*len(got) > 101*best {
					t.Errorf("%s: marker %d at %d bytes, the smallest rival takes %d", what, marker, len(got), best)
				}
				chosen[ci] += len(got)
				smallest[ci] += best
			}
		}
		for ci, c := range classes {
			if 1000*chosen[ci] > 1002*smallest[ci] {
				t.Errorf("%s %s: %d bytes chosen, %d by exact competition", f.kind, c.name, chosen[ci], smallest[ci])
			}
		}
		if priced == 0 {
			t.Errorf("%s: no stream long enough to be coded once", f.kind)
		}
		t.Logf("%s: chosen %v, smallest %v bytes a class; %d streams coded once", f.kind, chosen, smallest, priced)
	}
}
