package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one frame share
// Frame; Parent is the ID of the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Frame  string `json:"frame"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs a nil check, which is how the untraced run is untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID for children to name.
func (t *tracer) add(parent int, frame, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Frame: frame, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a root span (linkSpans finds its parent later). With
// a nil tracer it just runs fn.
func (t *tracer) timed(frame, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(0, frame, name, start, time.Now())
}

// replay records a stage that was re-run after its parent call returned
// (the codec exposes no hooks, so the harness replays each stage through
// the layer's public function). The span is laid inside the parent's
// interval, after the siblings already replayed, so one self-time rule
// serves live and replayed children alike.
type replay struct {
	t      *tracer
	parent int
	frame  string
	cursor time.Time
}

func (t *tracer) replayUnder(parent int, frame string, parentStart time.Time) *replay {
	return &replay{t: t, parent: parent, frame: frame, cursor: parentStart}
}

func (r *replay) stage(name string, d time.Duration) int {
	id := r.t.add(r.parent, r.frame, name, r.cursor, r.cursor.Add(d))
	r.cursor = r.cursor.Add(d)
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once,
// children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// byName groups span durations and self times (both in ms) by span name.
func byName(spans []span) (dur, self map[string][]float64) {
	dur, self = make(map[string][]float64), make(map[string][]float64)
	st := selfTimes(spans)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], ms(time.Duration(s.End-s.Start)))
		self[s.Name] = append(self[s.Name], ms(st[s.ID]))
	}
	return dur, self
}

// spanMedians maps span names to the per-layer metric that reports the
// median duration of those spans.
var spanMedians = map[string]string{
	"cluster.split":        "cluster.split_ms_p50",
	"octree.encode":        "octree.encode_ms_p50",
	"octree.decode":        "octree.decode_ms_p50",
	"octree.region":        "octree.region_ms_p50",
	"polyline.organize":    "polyline.organize_ms_p50",
	"sparse.encode":        "sparse.encode_ms_p50",
	"sparse.decode":        "sparse.decode_ms_p50",
	"outlier.encode":       "outlier.encode_ms_p50",
	"outlier.decode":       "outlier.decode_ms_p50",
	"core.compress":        "core.compress_ms_p50",
	"core.decompress":      "core.decompress_ms_p50",
	"core.region":          "core.region_ms_p50",
	"store.append":         "store.append_ms_p50",
	"store.commit":         "store.commit_ms_p50",
	"store.get":            "store.get_ms_p50",
	"replica.wait_durable": "replica.wait_durable_ms_p50",
	"replica.apply":        "replica.apply_ms_p50",
}

// layerMedians writes the median duration of every span kind in
// spanMedians into L (0 where the run recorded none) and returns the grouped
// durations and self times for the metrics that need more than a median.
func layerMedians(L map[string]float64, spans []span) (dur, self map[string][]float64) {
	dur, self = byName(spans)
	for name, metric := range spanMedians {
		L[metric] = median(dur[name])
	}
	return dur, self
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
