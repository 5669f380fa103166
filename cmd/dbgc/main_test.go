package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbgc"
	"dbgc/internal/lidar"
)

// TestSingleFrameCommands drives simulate → compress → info → decompress the
// way the command line does: compress writes what dbgc.Compress returns
// under DefaultOptions — the context dialect, which info names — and under
// -ctx=false the paper's coders, a larger v2 frame info does not call that;
// and what decompress writes holds the error bound through the mapping M.
func TestSingleFrameCommands(t *testing.T) {
	dir := t.TempDir()
	raw, packed, paper, back := filepath.Join(dir, "frame.bin"), filepath.Join(dir, "frame.dbgc"), filepath.Join(dir, "paper.dbgc"), filepath.Join(dir, "back.bin")
	run := func(cmd func([]string) error, args ...string) string {
		t.Helper()
		var err error
		log := stdout(t, func() { err = cmd(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return log
	}
	run(runSimulate, "-scene", string(lidar.Road), "-sensor", "vlp16", "-seed", "3", raw)
	pc, err := lidar.ReadBinFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if log := run(runCompress, "-q", fmt.Sprint(testQ), raw, packed); !strings.Contains(log, fmt.Sprintf("%d points -> ", len(pc))) {
		t.Errorf("compress log:\n%s", log)
	}
	run(runCompress, "-q", fmt.Sprint(testQ), "-ctx=false", raw, paper)

	data, err := os.ReadFile(packed)
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := dbgc.Compress(pc, dbgc.DefaultOptions(testQ))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("compress wrote %d bytes, dbgc.Compress under DefaultOptions returns %d other ones", len(data), len(want))
	}
	const dialect = "context dialect"
	if log := run(runInfo, packed); !strings.Contains(log, "format v5") || !strings.Contains(log, dialect) {
		t.Errorf("info on the default frame:\n%s", log)
	}
	if log := run(runInfo, paper); !strings.Contains(log, "format v2") || strings.Contains(log, dialect) {
		t.Errorf("info on the -ctx=false frame:\n%s", log)
	}
	if paperData, err := os.ReadFile(paper); err != nil || len(paperData) <= len(data) {
		t.Errorf("-ctx=false frame: %d bytes (%v), the default %d", len(paperData), err, len(data))
	}

	if log := run(runDecompress, packed, back); !strings.Contains(log, fmt.Sprintf("decoded %d points", len(pc))) {
		t.Errorf("decompress log:\n%s", log)
	}
	dec, err := lidar.ReadBinFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(pc) {
		t.Fatalf("decoded %d points of %d", len(dec), len(pc))
	}
	// The .bin format stores float32 coordinates.
	bound := math.Sqrt(3)*testQ + 1e-4
	for j, oi := range stats.Mapping {
		if d := pc[oi].Dist(dec[j]); d > bound {
			t.Fatalf("decoded point %d is %v from its source %d, bound %v", j, d, oi, bound)
		}
	}
}
