package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"dbgc/internal/lidar"
	"dbgc/internal/par/partest"
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

// TestDecodeFanOutBounded: the number of radial groups — like the number of
// shards — is read from the frame, and a frame may declare 1024 of them.
// Decoding one, whole, by region or salvaging, intact or with a group
// damaged, must cost the cores the process has, not a goroutine and a
// scratch per declared group: a stored frame is untrusted input to every
// query. It must also fail closed, and fail the same way at every width.
func TestDecodeFanOutBounded(t *testing.T) {
	opts := DefaultOptions(0.02)
	opts.Groups = 1024 // the most parseFrame admits
	opts.Shards = 8    // the dialect whose groups carry CRCs
	valid, _, err := Compress(frame(t, lidar.City), opts)
	if err != nil {
		t.Fatal(err)
	}
	if lay, err := Inspect(valid); err != nil || lay.Groups != 1024 {
		t.Fatalf("crafted frame has %d radial groups (%v), want 1024", lay.Groups, err)
	}
	// Damage one group: as a fault leaves it, for the salvaging decode, and
	// with the section's CRC — the four bytes before its payload — repaired,
	// so that whole-frame and region decode get past it to the groups and
	// only the group's own CRC stands between the damage and the decoder.
	damaged := bytes.Clone(valid)
	c, err := parseContainer(damaged, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload
	damageLargestGroup(t, sp)
	resealed := bytes.Clone(damaged)
	binary.LittleEndian.PutUint32(resealed[cap(damaged)-cap(sp)-4:], crc32.Checksum(sp, castagnoli))

	lim := DecompressOptions{Limits: DefaultDecodeLimits()}
	type result struct {
		points int
		err    string
	}
	decodes := []struct {
		name string
		bad  []byte // the damaged frame this decode is given
		run  func(data []byte) result
	}{
		{"whole", resealed, func(data []byte) result {
			pc, err := DecompressWith(data, lim)
			return result{len(pc), errString(err)}
		}},
		{"region", resealed, func(data []byte) result {
			pc, err := DecompressRegionWith(data, laneBox, lim)
			return result{len(pc), errString(err)}
		}},
		{"salvage", damaged, func(data []byte) result {
			pc, reports, err := DecompressPartial(data, lim)
			if err == nil {
				err = reports[SectionSparse].Err
			}
			return result{len(pc), errString(err)}
		}},
	}
	for _, frame := range []struct {
		name string
		bad  bool
	}{{"valid", false}, {"damaged", true}} {
		for _, d := range decodes {
			data := valid
			if frame.bad {
				data = d.bad
			}
			var want result
			for i, procs := range partest.Widths {
				var got result
				var extra int
				partest.At(procs, func() { extra = peakGoroutines(func() { got = d.run(data) }) })
				// GOMAXPROCS-1 helpers, and a caller blocked on its helpers
				// for each level of nesting: sections, groups, shards.
				if extra > procs+3 {
					t.Errorf("%s %s GOMAXPROCS=%d: %d goroutines above the baseline", frame.name, d.name, procs, extra)
				}
				if i == 0 {
					want = got
					if frame.bad == (got.err == "") {
						t.Errorf("%s %s: error %q", frame.name, d.name, got.err)
					}
					if frame.bad && d.name != "salvage" && got.points != 0 {
						t.Errorf("%s %s: %d points returned with the error", frame.name, d.name, got.points)
					}
				} else if got != want {
					t.Errorf("%s %s GOMAXPROCS=%d: %d points, error %q; at GOMAXPROCS=%d %d points, error %q",
						frame.name, d.name, procs, got.points, got.err, partest.Widths[0], want.points, want.err)
				}
			}
		}
	}
	// Salvage drops the damaged group and nothing else.
	whole, _, _ := DecompressPartial(valid, lim)
	part, reports, err := DecompressPartial(damaged, lim)
	if err != nil || !errors.Is(reports[SectionSparse].Err, ErrCorrupt) || reports[SectionSparse].Points == 0 || len(part) >= len(whole) {
		t.Errorf("salvage kept %d of %d points, sparse report %v, error %v", len(part), len(whole), reports[SectionSparse].Err, err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
