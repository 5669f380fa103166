package main

import (
	"bytes"
	"fmt"
	"time"

	"dbgc"
)

// runDrive is drive_e2e: the whole path of a frame, one at a time on one
// goroutine — compress live, send and wait for the replicated durable ack,
// query the lane box of that frame, then query an earlier frame whole.
// Reads and writes share one shard.
func runDrive(cfg runConfig) (*outcome, error) {
	var s *serviceState
	ref := &refClock{}
	setupS, err := repeatSetup(cfg, ref, func() (func() error, error) {
		var err error
		// The payload set setupService compresses is this workload's
		// warm-up (it fills the codec pools) and its reference: live
		// compression must reproduce it byte for byte.
		s, err = setupService(cfg, []string{"vehicle-1"})
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newOutcome()
	enc := dbgc.NewEncoder(dbgc.DefaultOptions(q))
	st := s.streams[0]
	var toAck, plainToAck samples
	var rt readTimes

	// loop runs iterations until the deadline; every input is visited at
	// least once. Each iteration attempts a frame, a region query and a
	// whole-frame query.
	loop := func(seconds float64, toAck *samples) {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for k := 0; ; k++ {
			if cfg.iters > 0 && k >= cfg.iters {
				return
			}
			if cfg.iters <= 0 && k >= len(s.pl.data) && time.Now().After(deadline) {
				return
			}
			n := len(st.from)
			i := s.pl.of(n)
			f := s.pl.frames[i]
			id := frameID(st.tenant, uint64(n)+1)

			out.attempted += 3
			var data []byte
			var stats *dbgc.Stats
			var err error
			var t0, t1, t2 time.Time
			scale := ref.bracket(func() {
				t0 = time.Now()
				data, stats, err = enc.Compress(f.pc)
				t1 = time.Now()
				if err != nil {
					return
				}
				if err = st.send(data, t1); err == nil {
					err = st.client.Flush()
				}
				t2 = time.Now()
			})
			if err != nil || st.acked[n].IsZero() {
				out.failed += 3
				continue
			}
			st.tr.add(0, id, "frame_to_ack", t0, t2)
			st.tr.add(0, id, "core.compress", t0, t1)

			// Correctness, outside the timers: the live bytes equal the
			// reference payload, they decode, and the decode is within the
			// error bound under this call's own mapping.
			dec, derr := dbgc.Decompress(data)
			if derr != nil || !bytes.Equal(data, s.pl.data[i]) {
				out.failed++
			} else if _, err := dbgc.VerifyErrorBound(f.pc, dec, stats.Mapping, q); err != nil {
				out.failed++
			}

			out.failed += st.queryPair(s.pl, ref, n, n/2, &rt)
			toAck.add(i, ms(t2.Sub(t0)), scale)
		}
	}

	var tr *tracer
	if cfg.trace {
		loop(cfg.seconds/3, &plainToAck)
		tr = s.startTrace()
		loop(cfg.seconds*2/3, &toAck)
	} else {
		loop(cfg.seconds, &toAck)
	}
	if len(toAck.all) == 0 {
		return nil, fmt.Errorf("no iteration completed")
	}
	rep, err := s.finish()
	if err != nil {
		return nil, err
	}
	out.failed += rep.lost
	out.count("iterations", len(toAck.all)+len(plainToAck.all))
	out.count("distinct_frames", len(s.pl.data))

	if !cfg.trace {
		out.e2e["setup_s"] = setupS
		out.e2e["frame_ms"] = toAck.typical()
		out.e2e["region_read_ms"] = rt.region.typical()
		out.e2e["frame_read_ms"] = rt.whole.typical()
		out.e2e["compression_ratio"] = s.pl.z.ratio()
		out.tails("frame_to_ack_ms", toAck.all)
		out.tails("query_region_ms", rt.region.all)
		out.tails("query_frame_ms", rt.whole.all)
		return out, nil
	}

	out.spans = tr.spans
	rep.layerInto(out.layer, s, tr.spans, &rt)
	out.layer["bench.trace_overhead_pct"] = 100 * (toAck.typical() - plainToAck.typical()) / plainToAck.typical()
	out.layer["bench.ref_ms_p50"] = median(ref.all)
	return out, nil
}
