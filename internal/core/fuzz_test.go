package core

import (
	"errors"
	"os"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/par/partest"
)

// FuzzDecompress drives the whole decode stack with mutated streams. Run
// with `go test -fuzz=FuzzDecompress ./internal/core/`; in normal test mode
// the seed corpus exercises the happy path plus classic corruptions and the
// two checked-in frames of the retired containers. The invariants:
// Decompress never panics, never returns both nil error and a malformed
// cloud, and refuses every container of version 3 or 4 as
// ErrRetiredDialect.
func FuzzDecompress(f *testing.F) {
	pc := geom.PointCloud{
		{X: 3, Y: 1, Z: -1}, {X: 3.1, Y: 1.1, Z: -1}, {X: 3.2, Y: 1.2, Z: -1},
		{X: 10, Y: -4, Z: 0.5}, {X: 40, Y: 40, Z: 2},
	}
	data, _, err := Compress(pc, paperOptions(0.02))
	if err != nil {
		f.Fatal(err)
	}
	def, _, err := Compress(pc, DefaultOptions(0.02))
	if err != nil {
		f.Fatal(err)
	}
	var retired [2][]byte
	for i, file := range []string{"testdata/city-sector-shards8.dbgc", "testdata/city-sector-blockpack.dbgc"} {
		if retired[i], err = os.ReadFile(file); err != nil {
			f.Fatal(err)
		}
	}
	v3, v4 := retired[0], retired[1]
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(v3)
	f.Add(v4)
	f.Add(def)
	f.Add(def[:len(def)/2])
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
	// A retired container with its version byte made a live one: the v3
	// sector read as v2, the v4 one as v5 with the context dialect.
	mut3 := append([]byte(nil), v3...)
	mut3[len(magic)] = version2
	f.Add(mut3)
	mut4 := append([]byte(nil), v4[:len(magic)]...)
	mut4 = append(append(mut4, version5, dialectContext), v4[len(magic)+1:]...)
	f.Add(mut4)
	// v5 mutants: the retired sharded bit set in the dialect byte, and the
	// head of the dense section garbled.
	mut5 := append([]byte(nil), def...)
	mut5[len(magic)+1] ^= dialectSharded
	f.Add(mut5)
	mut5b := append([]byte(nil), def...)
	if len(mut5b) > 45 {
		mut5b[45] ^= 0xff
	}
	f.Add(mut5b)
	// The sparse stream's retired blockpack flag, under a good section CRC.
	c, err := parseContainer(def, nil)
	if err != nil {
		f.Fatal(err)
	}
	sp := c.sec[SectionSparse].payload
	f.Add(withSection(f, def, SectionSparse, append([]byte{sp[0] | 1<<3}, sp[1:]...)))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, procs := range []int{1, 2} {
			partest.At(procs, func() {
				dec, err := Decompress(b)
				if err == nil && dec == nil {
					t.Fatal("nil cloud with nil error")
				}
				if len(b) > len(magic) && string(b[:len(magic)]) == magic && (b[len(magic)] == version3 || b[len(magic)] == version4) && !errors.Is(err, ErrRetiredDialect) {
					t.Fatalf("container version %d: %v, want ErrRetiredDialect", b[len(magic)], err)
				}
				// The partial decode reads the same bytes section by section;
				// it may not panic either.
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
