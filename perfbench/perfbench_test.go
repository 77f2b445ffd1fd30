package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's metric lists to
// the ones this program emits, name for name and unit for unit.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyRuns runs every workload at self-test size, untraced and
// traced: each must pass its output checks and emit every named metric.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for trace, want := range [][]metric{endToEnd, perLayer} {
			o := options{workload: w.name, seed: 2, seconds: 0.01, trace: trace, tiny: true, spans: t.TempDir()}
			res, err := measure(o, runChild)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace %d: metric %s missing or unit %q != %q", w.name, trace, m.name, v.Unit, m.unit)
				}
			}
		}
	}
}

// TestUnknownWorkload checks that a bad workload name is an error, not a
// result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := measure(options{workload: "bogus", seconds: 1}, runChild); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
