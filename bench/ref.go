package main

import (
	"slices"
	"time"
)

// The sandbox's speed changes under the benchmark: neighbours on the host
// slow the same call by 10–60% for seconds or minutes at a time (up to 3x
// was seen), CPU time tracking wall time, and no statistic taken inside a
// 15 s run removes a slow-down that outlasts the run. So every end-to-end
// timing is bracketed by a fixed kernel of the harness's own — a sort of
// 128k keys and 400k random read-modify-writes over a 16 MB table, branchy
// and cache-missing like the codec — and is reported scaled to a host on
// which that kernel takes refNominalMS: t × refNominalMS / kernel time now.
// The kernel shares no code with the program, so a change to the program
// moves the scaled timing exactly as it moves the raw one. Ten runs of one
// commit spread 3–4% scaled where they spread 7–13% raw. Per-layer metrics
// stay raw, and bench.ref_ms_p50 says how fast the host was.
const refNominalMS = 19.0

var (
	refKeys  = make([]uint64, 1<<17)
	refTable = make([]uint32, 4<<20)
	refSink  uint64
)

// refKernel runs the reference kernel once and returns how long it took.
func refKernel() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range refKeys {
		refKeys[i] = next()
	}
	slices.Sort(refKeys)
	var s uint32
	mask := uint64(len(refTable) - 1)
	for i := 0; i < 400_000; i++ {
		j := next() & mask
		refTable[j] += uint32(i)
		s += refTable[(j*7+13)&mask]
	}
	refSink += uint64(s) + refKeys[0]
	return time.Since(t)
}

// refClock brackets timed work with reference-kernel runs.
type refClock struct {
	last   float64   // ms of the most recent kernel run
	lastAt time.Time // when it ended
	all    []float64 // every kernel run, ms
}

// refStale is how old a kernel run may be and still serve as the "before"
// of the next bracket.
const refStale = 100 * time.Millisecond

func (c *refClock) run() float64 {
	c.last = ms(refKernel())
	c.lastAt = time.Now()
	c.all = append(c.all, c.last)
	return c.last
}

// bracket runs fn between two kernel runs (the previous bracket's closing
// run serves as the opening one while it is fresh) and returns the factor
// that scales a duration measured inside fn to the nominal host.
func (c *refClock) bracket(fn func()) float64 {
	before := c.last
	if c.lastAt.IsZero() || time.Since(c.lastAt) > refStale {
		before = c.run()
	}
	fn()
	after := c.run()
	return refNominalMS / ((before + after) / 2)
}
