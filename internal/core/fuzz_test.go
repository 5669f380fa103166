package core

import (
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/par/partest"
)

// FuzzDecompress drives the whole decode stack with mutated streams. Run
// with `go test -fuzz=FuzzDecompress ./internal/core/`; in normal test mode
// the seed corpus exercises the happy path plus classic corruptions. The
// invariant: Decompress never panics and never returns both nil error and a
// malformed cloud.
func FuzzDecompress(f *testing.F) {
	pc := geom.PointCloud{
		{X: 3, Y: 1, Z: -1}, {X: 3.1, Y: 1.1, Z: -1}, {X: 3.2, Y: 1.2, Z: -1},
		{X: 10, Y: -4, Z: 0.5}, {X: 40, Y: 40, Z: 2},
	}
	data, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		f.Fatal(err)
	}
	sopts := paperOptions(0.02)
	sopts.Shards = 2
	v3, _, err := Compress(pc, sopts)
	if err != nil {
		f.Fatal(err)
	}
	popts := paperOptions(0.02)
	popts.BlockPack = true
	v4, _, err := Compress(pc, popts)
	if err != nil {
		f.Fatal(err)
	}
	copts := DefaultOptions(0.02)
	copts.Shards = 2
	v5, _, err := Compress(pc, copts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(v3)
	f.Add(v4)
	f.Add(v5)
	f.Add(v5[:len(v5)/2])
	f.Add([]byte("DBGC\x01garbage"))
	f.Add([]byte("DBGC\x03garbage"))
	f.Add([]byte("DBGC\x04garbage"))
	f.Add([]byte("DBGC\x05\x07garbage"))
	f.Add([]byte("DBGC\x05\xffgarbage"))
	f.Add([]byte{})
	mut := append([]byte(nil), data...)
	if len(mut) > 10 {
		mut[10] ^= 0xff
	}
	f.Add(mut)
	mut3 := append([]byte(nil), v3...)
	if len(mut3) > 20 {
		mut3[20] ^= 0xff
	}
	f.Add(mut3)
	mut4 := append([]byte(nil), v4...)
	if len(mut4) > 30 {
		mut4[30] ^= 0xff
	}
	f.Add(mut4)
	// v5 mutants: flip the dialect byte and garble the context-table header
	// region at the head of the dense section.
	mut5 := append([]byte(nil), v5...)
	mut5[5] ^= 0x04
	f.Add(mut5)
	mut5b := append([]byte(nil), v5...)
	if len(mut5b) > 45 {
		mut5b[45] ^= 0xff
	}
	f.Add(mut5b)
	// The default dialect as DefaultOptions writes it: v5 over unsharded
	// streams, the occupancy behind its legacy marker.
	def, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() {
				dec, err := Decompress(b)
				if err == nil && dec == nil {
					t.Fatal("nil cloud with nil error")
				}
				// v3 containers route through the sharded decoders and the
				// group-salvage partial path; neither may panic.
				_, _, _ = DecompressPartial(b, DecompressOptions{})
				// The query path decodes the same untrusted bytes; under
				// limits it must stop at a charge, not at the allocator.
				lim := DecompressOptions{Limits: DecodeLimits{MaxPoints: 1 << 20, MaxNodes: 1 << 22, MemBudget: 64 << 20}}
				if reg, err := DecompressRegionWith(b, laneBox, lim); err == nil && len(reg) > 1<<20 {
					t.Fatalf("region decode returned %d points past MaxPoints", len(reg))
				}
			})
		}
	})
}
