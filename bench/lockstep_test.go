package main

import "testing"

// BENCHMARK.json and the tables the program prints from must name the
// same workloads and metrics with the same units, directions and
// bounds, in both directions.
func TestBenchmarkJSONLockstep(t *testing.T) {
	if err := lockstep("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric %s is listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("name %s is used twice", w.name)
		}
		seen[w.name] = true
		if _, ok := phaseSize[w.name]; !ok {
			t.Errorf("workload %s has no size", w.name)
		}
	}
}
