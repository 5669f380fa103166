package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRows loads the untraced rows of an -out file, grouped by workload and
// then by metric.
func readRows(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // a traced row carries its spans
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to the runs of two sides: "worse" when
// b's median is worse than a's by more than the bound, "unresolved" when
// either side's own spread (interquartile distance as a share of its
// median) is wider than the bound so the medians cannot be told apart,
// otherwise "ok".
func verdict(m specMetric, a, b []float64) string {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma // positive = b reads higher
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case iqrShare(a) > m.Bound || iqrShare(b) > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one line per (workload, end-to-end metric) present on
// both sides and reports whether any was worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (anyWorse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRows(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRows(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-16s %-18s %-10s a=%.6g (n=%d, spread %.1f%%)  b=%.6g (n=%d, spread %.1f%%)  change %+.1f%%  bound %.1f%% %s-is-better\n",
				wl, m.Name, v, median(va), len(va), 100*iqrShare(va), median(vb), len(vb), 100*iqrShare(vb),
				100*(median(vb)-median(va))/median(va), 100*m.Bound, m.Better)
		}
	}
	return anyWorse, nil
}
