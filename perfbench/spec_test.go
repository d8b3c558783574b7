package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesSpec checks that BENCHMARK.json at the
// repository root names the workloads and metrics spec.json describes,
// with the same units, and that every per-layer metric names the
// end-to-end metrics and workloads it should move.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []struct {
			metric
			Moves [][2]string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		t.Fatal(err)
	}
	var workloadNames, specWorkloads []string
	for _, w := range bench.Workloads {
		workloadNames = append(workloadNames, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not runnable", w.Name)
		}
	}
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	if !slices.Equal(workloadNames, specWorkloads) {
		t.Errorf("workloads: BENCHMARK.json %v, spec.json %v", workloadNames, specWorkloads)
	}
	if !slices.Equal(bench.EndToEnd, sp.EndToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, spec.json %v", bench.EndToEnd, sp.EndToEnd)
	}
	if len(bench.PerLayer) != len(sp.PerLayer) {
		t.Fatalf("per-layer metrics: %d in BENCHMARK.json, %d in spec.json", len(bench.PerLayer), len(sp.PerLayer))
	}
	names := map[string]bool{}
	for _, m := range bench.EndToEnd {
		names[m.Name] = true
	}
	for _, m := range bench.PerLayer {
		names[m.Name] = true
	}
	for i, m := range sp.PerLayer {
		if bench.PerLayer[i] != m.metric {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, spec.json %v", i, bench.PerLayer[i], m.metric)
		}
		for _, mv := range m.Moves {
			if !names[mv[0]] || !slices.Contains(specWorkloads, mv[1]) {
				t.Errorf("%s moves %s on %s: no such metric or workload", m.Name, mv[0], mv[1])
			}
		}
	}
}
