package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// per-layer metrics a traced run prints, with the same units, and the
// workloads the command accepts.
func TestBenchmarkJSONMatches(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, pl := range perLayer {
		if got := spec.PerLayer[i]; got.Name != pl.name || got.Unit != pl.unit {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, got.Name, got.Unit, pl.name, pl.unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	printed := map[string]string{"setup_s": "s", "throughput_ops_s": "ops/s", "latency_p50_ms": "ms",
		"latency_tail_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}
	if len(spec.EndToEnd) != len(printed) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(printed))
	}
	for _, m := range spec.EndToEnd {
		if printed[m.Name] != m.Unit {
			t.Errorf("end-to-end %s (%s) is not printed with that unit", m.Name, m.Unit)
		}
	}
}
