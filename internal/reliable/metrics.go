package reliable

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Metrics counts server activity. All fields are updated atomically and
// may be read concurrently with serving; Snapshot returns a consistent-
// enough copy for reporting (counters are independent, not transactional).
type Metrics struct {
	// Frame traffic.
	FramesIn    atomic.Uint64 // data frames read off the wire
	BytesIn     atomic.Uint64 // payload bytes of those frames
	Acked       atomic.Uint64 // frames acknowledged
	Nacked      atomic.Uint64 // frames rejected (checksum/decode/handler)
	BusyNacked  atomic.Uint64 // frames refused with a backpressure hint
	Quarantined atomic.Uint64 // quarantine callbacks invoked

	// Replication and storage health.
	ReplRecords     atomic.Uint64 // replication records ingested (follower side)
	StoreSyncErrors atomic.Uint64 // sticky fsync failures observed by the commit group

	// Admission and lifecycle.
	SessionsOpened   atomic.Uint64
	SessionsClosed   atomic.Uint64
	SessionsRejected atomic.Uint64 // refused at admission (limits, shed)
	SessionsStalled  atomic.Uint64 // dropped for making no progress
	TenantsShed      atomic.Uint64 // tenants marked for shedding

	// Gauges.
	ActiveSessions atomic.Int64
	ActiveTenants  atomic.Int64
	InflightFrames atomic.Int64 // accepted but not yet acked/nacked

	lat latencyHist
}

// ObserveLatency records one frame's ingest latency (read → response).
func (m *Metrics) ObserveLatency(d time.Duration) { m.lat.observe(d) }

// MetricsSnapshot is a point-in-time copy of Metrics, JSON-ready for the
// /metrics endpoint and dbgc-loadgen's -out file.
type MetricsSnapshot struct {
	FramesIn         uint64  `json:"frames_in"`
	BytesIn          uint64  `json:"bytes_in"`
	Acked            uint64  `json:"acked"`
	Nacked           uint64  `json:"nacked"`
	BusyNacked       uint64  `json:"busy_nacked"`
	Quarantined      uint64  `json:"quarantined"`
	ReplRecords      uint64  `json:"repl_records"`
	StoreSyncErrors  uint64  `json:"store_sync_errors"`
	SessionsOpened   uint64  `json:"sessions_opened"`
	SessionsClosed   uint64  `json:"sessions_closed"`
	SessionsRejected uint64  `json:"sessions_rejected"`
	SessionsStalled  uint64  `json:"sessions_stalled"`
	TenantsShed      uint64  `json:"tenants_shed"`
	ActiveSessions   int64   `json:"active_sessions"`
	ActiveTenants    int64   `json:"active_tenants"`
	InflightFrames   int64   `json:"inflight_frames"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	LatencyP99Ms     float64 `json:"latency_p99_ms"`
}

// Snapshot copies the counters and computes latency quantiles.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		FramesIn:         m.FramesIn.Load(),
		BytesIn:          m.BytesIn.Load(),
		Acked:            m.Acked.Load(),
		Nacked:           m.Nacked.Load(),
		BusyNacked:       m.BusyNacked.Load(),
		Quarantined:      m.Quarantined.Load(),
		ReplRecords:      m.ReplRecords.Load(),
		StoreSyncErrors:  m.StoreSyncErrors.Load(),
		SessionsOpened:   m.SessionsOpened.Load(),
		SessionsClosed:   m.SessionsClosed.Load(),
		SessionsRejected: m.SessionsRejected.Load(),
		SessionsStalled:  m.SessionsStalled.Load(),
		TenantsShed:      m.TenantsShed.Load(),
		ActiveSessions:   m.ActiveSessions.Load(),
		ActiveTenants:    m.ActiveTenants.Load(),
		InflightFrames:   m.InflightFrames.Load(),
		LatencyP50Ms:     m.lat.quantile(0.50),
		LatencyP99Ms:     m.lat.quantile(0.99),
	}
}

// latencyHist is a lock-free power-of-two histogram over microseconds:
// bucket i holds observations in [2^i, 2^(i+1)) µs, the last bucket is
// open-ended (~67s+). Quantiles interpolate inside the winning bucket,
// good to a factor of 2 — plenty for p99 monitoring.
type latencyHist struct {
	buckets [27]atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	i := bits.Len64(uint64(us)) - 1
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
}

func (h *latencyHist) quantile(q float64) float64 {
	var counts [27]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		if seen+c > rank {
			lo := float64(uint64(1) << i)           // bucket floor in µs
			frac := float64(rank-seen) / float64(c) // position inside bucket
			return lo * (1 + frac) / 1000           // → ms
		}
		seen += c
	}
	return 0
}
