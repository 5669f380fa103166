// Command bench is the repository's benchmark: five named workloads from
// sensor frame to replicated ack to region query, each run in a fresh
// process, with per-layer spans in a separate traced run. See README.md.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-dir DIR] [-out FILE]
//	bench -compare a.jsonl b.jsonl [-spec BENCHMARK.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbgc/internal/lidar"
)

// metricDef names one metric of BENCHMARK.json. The test suite checks that
// these tables and BENCHMARK.json agree.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with -trace 0. Each name
// means the same user-visible thing on every workload; README.md says
// which call it is timed around on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frame_ms", "ms"},
	{"region_read_ms", "ms"},
	{"frame_read_ms", "ms"},
	{"compression_ratio", "ratio"},
}

// perLayer are the metrics every workload reports with -trace 1. A layer
// the workload never enters reports 0: it did no work.
var perLayer = []metricDef{
	{"cluster.split_ms_p50", "ms"},
	{"cluster.dense_share", "ratio"},
	{"octree.encode_ms_p50", "ms"},
	{"octree.decode_ms_p50", "ms"},
	{"octree.region_ms_p50", "ms"},
	{"octree.bytes_per_point", "B/pt"},
	{"polyline.organize_ms_p50", "ms"},
	{"polyline.points_per_line", "count"},
	{"sparse.encode_ms_p50", "ms"},
	{"sparse.decode_ms_p50", "ms"},
	{"sparse.bytes_per_point", "B/pt"},
	{"sparse.outlier_share", "ratio"},
	{"outlier.encode_ms_p50", "ms"},
	{"outlier.decode_ms_p50", "ms"},
	{"outlier.bytes_per_point", "B/pt"},
	{"core.compress_ms_p50", "ms"},
	{"core.compress_ms_tail", "ms"},
	{"core.compress_self_ms_p50", "ms"},
	{"core.decompress_ms_p50", "ms"},
	{"core.decompress_ms_tail", "ms"},
	{"core.decompress_self_ms_p50", "ms"},
	{"core.region_ms_p50", "ms"},
	{"core.region_ms_tail", "ms"},
	{"core.region_vs_full", "ratio"},
	{"core.region_points_share", "ratio"},
	{"core.compress_alloc_mb", "MB"},
	{"core.compress_allocs", "count"},
	{"core.decompress_alloc_mb", "MB"},
	{"lidar.simulate_ms_p50", "ms"},
	{"lidar.bin_codec_ms_p50", "ms"},
	{"netproto.frame_us_p50", "us"},
	{"reliable.ack_ms_p50", "ms"},
	{"reliable.ack_ms_tail", "ms"},
	{"reliable.ack_ms_p99", "ms"},
	{"reliable.self_ms_p50", "ms"},
	{"reliable.over_budget_share", "ratio"},
	{"reliable.gen_late_ms_p99", "ms"},
	{"reliable.fps", "1/s"},
	{"reliable.fps_slice_p50", "1/s"},
	{"reliable.fps_slice_min", "1/s"},
	{"reliable.cpu_ms_per_frame", "ms"},
	{"reliable.busy_nacks", "count"},
	{"reliable.nacks", "count"},
	{"reliable.resent", "count"},
	{"reliable.reconnects", "count"},
	{"reliable.query_region_ms_p50", "ms"},
	{"reliable.query_frame_ms_p50", "ms"},
	{"reliable.query_self_ms_p50", "ms"},
	{"store.append_ms_p50", "ms"},
	{"store.commit_ms_p50", "ms"},
	{"store.commits_per_round", "ratio"},
	{"store.get_ms_p50", "ms"},
	{"store.disk_bytes_per_payload_byte", "ratio"},
	{"store.bytes_per_point", "B/pt"},
	{"store.reopen_ms", "ms"},
	{"replica.wait_durable_ms_p50", "ms"},
	{"replica.apply_ms_p50", "ms"},
	{"replica.lag_bytes_max", "B"},
	{"replica.records_shipped", "count"},
	{"replica.records_rejected", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.peak_rss_mb", "MB"},
	{"bench.ref_ms_p50", "ms"},
	{"bench.yardstick_ms_p50", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"codec_city":       func(c runConfig) (*outcome, error) { return runCodec(c, lidar.City) },
	"codec_road":       func(c runConfig) (*outcome, error) { return runCodec(c, lidar.Road) },
	"ingest_paced":     func(c runConfig) (*outcome, error) { return runIngest(c, true) },
	"ingest_saturated": func(c runConfig) (*outcome, error) { return runIngest(c, false) },
	"drive_e2e":        runDrive,
}

// runConfig is one invocation. frames and iters exist for the smoke tests:
// frames > 0 shrinks the distinct inputs, iters > 0 replaces the clock as
// the end of every loop.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	frames   int
	iters    int
}

// setupRepeats is how often an untraced run sets up: setup_s is the median.
const setupRepeats = 3

// repeatSetup runs setup setupRepeats times (once when tracing, which does
// not report setup_s), tearing down all but the last with the cleanup it
// returned, and reports the median duration in seconds, scaled to the
// nominal host.
func repeatSetup(cfg runConfig, ref *refClock, setup func() (cleanup func() error, err error)) (float64, error) {
	n := setupRepeats
	if cfg.trace || cfg.iters > 0 {
		n = 1
	}
	var took []float64
	for i := 0; i < n; i++ {
		var cleanup func() error
		var err error
		var d time.Duration
		scale := ref.bracket(func() {
			t := time.Now()
			cleanup, err = setup()
			d = time.Since(t)
		})
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, d.Seconds()*scale)
		if i < n-1 {
			if err := cleanup(); err != nil {
				return 0, fmt.Errorf("tearing set-up %d down: %w", i+1, err)
			}
		}
	}
	return median(took), nil
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	counts            map[string]int
	notes             []string
	spans             []span
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64), counts: make(map[string]int)}
}

func (o *outcome) count(name string, n int) { o.counts[name] = n }

// tails notes the all-sample median of a timing beside the highest
// percentile that has at least ten samples beyond it.
func (o *outcome) tails(name string, v []float64) {
	p, t := tail(v)
	o.notes = append(o.notes, fmt.Sprintf("%s: n=%d p50=%.3f p%g=%.3f", name, len(v), median(v), p, t))
}

// stamp identifies the run that produced a result.
type stamp struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	FSType     string         `json:"fs_type"`
	Counts     map[string]int `json:"counts"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// row is one line of an -out file: the result with its stamp (and spans,
// for a traced run).
type row struct {
	stamp
	resultLine
	Spans []span `json:"spans,omitempty"`
}

func main() {
	var cfg runConfig
	var trace int
	var out, spec string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives sensor noise and input rotation, nothing inside the program")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed part runs")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(os.TempDir(), "dbgc-bench"), "directory for shard files; emptied first")
	flag.StringVar(&out, "out", "", "append the stamped result (with spans when tracing) to this file as one JSON line")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition, for the bounds -compare applies")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	r, notes, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	stampJSON, _ := json.Marshal(r.stamp)
	fmt.Printf("# %s\n", stampJSON)
	for _, n := range notes {
		fmt.Printf("# %s %s\n", cfg.workload, n)
	}
	for _, d := range metricsOf(cfg.trace) {
		fmt.Printf("%s %s %s %s\n", cfg.workload, d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	fmt.Printf("%s attempted %d failed %d\n", cfg.workload, r.Attempted, r.Failed)
	if out != "" {
		if err := appendRow(out, r); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(r.resultLine)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if r.Failed != 0 {
		os.Exit(1)
	}
}

// metricsOf is the list a run reports: end to end untraced, per layer
// traced.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// execute runs one workload in a fresh directory below cfg.dir (removed on
// the way out) and assembles its stamped result.
func execute(cfg runConfig) (row, []string, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return row{}, nil, fmt.Errorf("unknown workload %q; have %s", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return row{}, nil, fmt.Errorf("-seconds must be positive")
	}
	cfg.dir = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return row{}, nil, err
	}
	defer os.RemoveAll(cfg.dir)
	fsType := fsTypeOf(cfg.dir)
	o, err := run(cfg)
	if err != nil {
		return row{}, nil, err
	}
	o.layer["bench.peak_rss_mb"] = peakRSSMB()

	values := o.e2e
	if cfg.trace {
		values = o.layer
	}
	r := row{
		stamp: stamp{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, FSType: fsType, Counts: o.counts},
		resultLine: resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)},
		Spans:      o.spans,
	}
	for _, d := range metricsOf(cfg.trace) {
		v, ok := values[d.name]
		// A layer the workload never enters did no work and reads 0; an
		// end-to-end metric must have been measured.
		if !ok && !cfg.trace {
			return row{}, nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, o.notes, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func appendRow(path string, r row) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsTypeOf names the filesystem under dir, by its statfs magic number.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}

// commit reads the checked-out commit from .git without starting a
// process; a checkout that is not a repository reports "unknown".
func commit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; ; dir = filepath.Dir(dir) {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(b))
			}
			return "unknown"
		}
		if filepath.Dir(dir) == dir {
			return "unknown"
		}
	}
}
