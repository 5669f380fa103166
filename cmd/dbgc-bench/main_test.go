package main

import (
	"slices"
	"strings"
	"testing"
)

// TestExperimentNamesAgree: the -exp help string, the order `-exp all` runs
// and the runners map name the same experiments, each once. (DESIGN.md once
// advertised an experiment no runner ever had.)
func TestExperimentNamesAgree(t *testing.T) {
	list, ok := strings.CutPrefix(expHelp(), "experiment to run: ")
	if !ok {
		t.Fatalf("help %q does not start with the experiment list", expHelp())
	}
	help, ok := strings.CutSuffix(list, ", all")
	if !ok {
		t.Fatalf("help list %q does not end with all", list)
	}
	var mapped []string
	for name, run := range runners {
		if run == nil {
			t.Errorf("runners[%q] is nil", name)
		}
		mapped = append(mapped, name)
	}
	if _, ok := runners["all"]; ok {
		t.Error(`"all" selects every experiment and cannot also be one`)
	}

	sorted := func(names []string) []string {
		out := slices.Clone(names)
		slices.Sort(out)
		return out
	}
	want := sorted(order)
	for _, s := range []struct {
		source string
		names  []string
	}{
		{"-exp help", strings.Split(help, ", ")},
		{"order", order},
		{"runners", mapped},
	} {
		got := sorted(s.names)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Errorf("%s names an experiment twice: %q", s.source, s.names)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s names %q, order names %q", s.source, got, want)
		}
	}
}
