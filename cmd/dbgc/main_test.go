package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
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

// TestRetiredFlags runs compress and pack as the command line does, in a
// child process, with each flag that once chose the sharded (v3) or
// blockpacked (v4) container: the command refuses the flag, exits 2 and
// writes no output, on an input it compresses without the flag.
func TestRetiredFlags(t *testing.T) {
	dbgc := childProcess(t, "TestRetiredFlags")
	in, out := t.TempDir(), t.TempDir()
	writeFrames(t, in, 1)
	frame := filepath.Join(in, "000000.bin")
	for _, c := range []struct {
		cmd, flag, output string
	}{
		{"compress", "-shards=8", "frame.dbgc"},
		{"compress", "-blockpack", "frame.dbgc"},
		{"compress", "-blockpack-force", "frame.dbgc"},
		{"pack", "-shards=8", "drive.dbgs"},
		{"pack", "-blockpack", "drive.dbgs"},
	} {
		dst := filepath.Join(out, c.output)
		stderr, err := dbgc(c.cmd, c.flag, frame, dst)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dbgc %s %s: %v, want exit status 2", c.cmd, c.flag, err)
		}
		name, _, _ := strings.Cut(c.flag, "=")
		if want := "flag provided but not defined: " + name; !strings.Contains(stderr, want) {
			t.Errorf("dbgc %s %s printed %q, want %q", c.cmd, c.flag, stderr, want)
		}
		if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("dbgc %s %s left %s behind (%v)", c.cmd, c.flag, c.output, err)
		}
		if stderr, err := dbgc(c.cmd, frame, dst); err != nil {
			t.Fatalf("dbgc %s without %s: %v\n%s", c.cmd, c.flag, err, stderr)
		}
		if err := os.Remove(dst); err != nil {
			t.Fatalf("dbgc %s without %s wrote no %s: %v", c.cmd, c.flag, c.output, err)
		}
	}
}

// childProcess returns a function that runs the command line with args in a
// child process — the test binary rerunning test, which must call it first —
// and returns what it wrote to stderr and how it exited.
func childProcess(t *testing.T, test string) func(args ...string) (string, error) {
	if args, ok := os.LookupEnv("DBGC_TEST_ARGS"); ok {
		os.Args = append([]string{"dbgc"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	return func(args ...string) (string, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
		cmd.Env = append(os.Environ(), "DBGC_TEST_ARGS="+strings.Join(args, "\n"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
}

// TestInfoRefusesRetiredDialects runs info on the two checked-in frames of
// the retired containers, sharded v3 and blockpacked v4: it exits 1 and says
// why by dbgc.ErrRetiredDialect, where the default frame's vector beside
// them is described.
func TestInfoRefusesRetiredDialects(t *testing.T) {
	run := childProcess(t, "TestInfoRefusesRetiredDialects")
	for _, file := range []string{"city-sector-shards8.dbgc", "city-sector-blockpack.dbgc"} {
		stderr, err := run("info", filepath.Join("..", "..", "internal", "core", "testdata", file))
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("dbgc info %s: %v, want exit status 1", file, err)
		}
		if !strings.Contains(stderr, dbgc.ErrRetiredDialect.Error()) {
			t.Errorf("dbgc info %s printed %q, want it to name %q", file, stderr, dbgc.ErrRetiredDialect)
		}
	}
	if stderr, err := run("info", filepath.Join("..", "..", "internal", "core", "testdata", "city-sector-ctx.dbgc")); err != nil {
		t.Errorf("dbgc info on the v5 vector: %v\n%s", err, stderr)
	}
}
