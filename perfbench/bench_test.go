package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSimAnalyticDeterministic runs sim-analytic twice on one seed at
// reduced size: the exact counts and the answers must repeat bit for
// bit, and another seed must give another query sequence.
func TestSimAnalyticDeterministic(t *testing.T) {
	const persons, fixed = 200, 24
	outcome := func(seed int64) simOutcome {
		t.Helper()
		r := &run{workload: "sim-analytic", seed: seed, work: t.TempDir(), vals: map[string]float64{}, tr: newTracer(false)}
		out := simAnalytic(r, persons, fixed)
		if r.failed != 0 || r.attempted < fixed {
			t.Fatalf("seed %d: %d of %d ops failed", seed, r.failed, r.attempted)
		}
		return out
	}
	a, b := outcome(7), outcome(7)
	if a != b {
		t.Fatalf("same seed, different outcomes:\n%+v\n%+v", a, b)
	}
	if a.msgsPerOp == 0 || a.simQueryMS == 0 {
		t.Fatalf("exact counts are empty: %+v", a)
	}
	if c := outcome(8); c.sequence == a.sequence {
		t.Fatalf("seeds 7 and 8 produced the same query sequence")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// in step with the metrics the benchmark prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []entry
	for _, m := range catalogue {
		if m.e2e {
			e2e = append(e2e, entry{m.name, m.unit})
		} else {
			layer = append(layer, entry{m.name, m.unit})
		}
	}
	same := func(a, b []entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(e2e, spec.EndToEnd) || !same(layer, spec.PerLayer) {
		want, _ := json.Marshal(map[string][]entry{"end_to_end": e2e, "per_layer": layer})
		t.Fatalf("BENCHMARK.json metric lists differ from the catalogue; want %s", want)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
