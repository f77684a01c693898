package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []benchMetric                `json:"end_to_end"`
	PerLayer   []benchMetric                `json:"per_layer"`
}

// BENCHMARK.json at the repository root must describe exactly what the
// harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	var f benchFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "bash perfbench/run.sh" || len(f.Paths) != 1 || f.Paths[0] != "perfbench" {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %q unknown to the harness or without a why", w.Name)
		}
	}
	if len(f.Workloads) < 2 {
		t.Errorf("%d workloads, want at least 2", len(f.Workloads))
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the harness prints %d", len(f.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range f.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}

	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the harness prints %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}
