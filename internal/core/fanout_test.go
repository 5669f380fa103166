package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
	"dbgc/internal/sparse"
	"dbgc/internal/varint"
)

// peakGoroutines runs f and returns the most goroutines alive at any
// sampled moment of it, over those alive just before. The sampler counts
// as one of the latter.
func peakGoroutines(f func()) int {
	stop := make(chan struct{})
	done := make(chan int)
	ready := make(chan int)
	go func() {
		base := runtime.NumGoroutine()
		ready <- base
		peak := base
		for {
			select {
			case <-stop:
				done <- peak - base
				return
			default:
				peak = max(peak, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}
	}()
	<-ready
	f()
	close(stop)
	return <-done
}

// TestDecodeFanOutBounded: the number of radial groups is read from the
// frame, and a frame may declare 1024 of them. Decoding one, whole, by
// region or partially, intact or with a group damaged, must cost the cores
// the process has, not a goroutine and a scratch per declared group: a
// stored frame is untrusted input to every query. It must also fail closed,
// and fail the same way at every width.
func TestDecodeFanOutBounded(t *testing.T) {
	opts := DefaultOptions(0.02)
	opts.Groups = 1024 // the most parseFrame admits
	valid, _, err := Compress(frame(t, lidar.City), opts)
	if err != nil {
		t.Fatal(err)
	}
	if lay, err := Inspect(valid); err != nil || lay.Groups != 1024 {
		t.Fatalf("crafted frame has %d radial groups (%v), want 1024", lay.Groups, err)
	}
	// Damage one group, its outer radius made NaN, and repair the section's
	// CRC, so that every decode gets past it to the groups.
	c, err := parseContainer(valid, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := bytes.Clone(c.sec[SectionSparse].payload)
	damageLargestGroup(t, sp)
	damaged := withSection(t, valid, SectionSparse, sp)

	lim := DecompressOptions{Limits: DefaultDecodeLimits()}
	type result struct {
		points int
		err    string
	}
	decodes := []struct {
		name string
		run  func(data []byte) result
	}{
		{"whole", func(data []byte) result {
			pc, err := DecompressWith(data, lim)
			return result{len(pc), errString(err)}
		}},
		{"region", func(data []byte) result {
			pc, err := DecompressRegionWith(data, laneBox, lim)
			return result{len(pc), errString(err)}
		}},
		{"partial", func(data []byte) result {
			pc, reports, err := DecompressPartial(data, lim)
			if err == nil {
				err = reports[SectionSparse].Err
			}
			return result{len(pc), errString(err)}
		}},
	}
	for _, frame := range []struct {
		name string
		data []byte
	}{{"valid", valid}, {"damaged", damaged}} {
		for _, d := range decodes {
			var want result
			for i, procs := range partest.Widths {
				var got result
				var extra int
				partest.At(procs, func() { extra = peakGoroutines(func() { got = d.run(frame.data) }) })
				// GOMAXPROCS-1 helpers, and a caller blocked on its helpers
				// for each level of nesting.
				if extra > procs+3 {
					t.Errorf("%s %s GOMAXPROCS=%d: %d goroutines above the baseline", frame.name, d.name, procs, extra)
				}
				bad := frame.name == "damaged"
				if i == 0 {
					want = got
					if bad == (got.err == "") {
						t.Errorf("%s %s: error %q", frame.name, d.name, got.err)
					}
					if bad && d.name != "partial" && got.points != 0 {
						t.Errorf("%s %s: %d points returned with the error", frame.name, d.name, got.points)
					}
				} else if got != want {
					t.Errorf("%s %s GOMAXPROCS=%d: %d points, error %q; at GOMAXPROCS=%d %d points, error %q",
						frame.name, d.name, procs, got.points, got.err, partest.Widths[0], want.points, want.err)
				}
			}
		}
	}
	// A partial decode drops the sparse section and nothing else.
	whole, wholeReports, _ := DecompressPartial(valid, lim)
	part, reports, err := DecompressPartial(damaged, lim)
	if err != nil || !errors.Is(reports[SectionSparse].Err, sparse.ErrCorrupt) || reports[SectionSparse].Points != 0 || len(part) != len(whole)-wholeReports[SectionSparse].Points {
		t.Errorf("partial decode kept %d of %d points, sparse report %v, error %v", len(part), len(whole), reports[SectionSparse].Err, err)
	}
}

// damageLargestGroup locates the largest radial group inside the sparse
// payload sp and makes its outer radius, the first eight bytes of a polar
// group, a NaN: a group every decoder refuses, whose length and whose
// neighbours still parse.
func damageLargestGroup(t *testing.T, sp []byte) {
	t.Helper()
	_, u1, err := varint.Uint(sp) // flags, then q, then the group count
	if err != nil {
		t.Fatal(err)
	}
	_, u2, err := varint.Uint(sp[u1+8:])
	if err != nil {
		t.Fatal(err)
	}
	off, bestOff, bestLen := u1+8+u2, 0, 0
	rest := sp[off:]
	for len(rest) > 0 {
		glen, used, err := varint.Uint(rest)
		if err != nil {
			t.Fatal(err)
		}
		off += used
		rest = rest[used:]
		if int(glen) > bestLen {
			bestLen, bestOff = int(glen), off
		}
		off += int(glen)
		rest = rest[glen:]
	}
	if bestLen < 16 {
		t.Fatalf("largest group is only %d bytes", bestLen)
	}
	copy(sp[bestOff:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
