package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchmarkFile is BENCHMARK.json, the contract at the root of the
// repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// lockstep reports the first difference between BENCHMARK.json and the
// tables this program emits its results from: workloads, end-to-end and
// per-layer metrics, each by name, unit, direction and bound, in both
// directions.
func lockstep(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if f.RunSeconds != runSeconds {
		return fmt.Errorf("run_seconds is %d, the program's default is %d", f.RunSeconds, runSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads in the file, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := f.Workloads[i]; got.Name != w.name || got.Why != w.why {
			return fmt.Errorf("workload %d: file has %+v, program has %+v", i, got, w)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		return fmt.Errorf("%d end_to_end metrics in the file, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := f.EndToEnd[i]; (metricDef{got.Name, got.Unit, got.Better, got.Bound}) != m {
			return fmt.Errorf("end_to_end %d: file has %+v, program has %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		return fmt.Errorf("%d per_layer metrics in the file, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := f.PerLayer[i]; (metricDef{got.Name, got.Unit, got.Better, 0}) != m {
			return fmt.Errorf("per_layer %d: file has %+v, program has %+v", i, got, m)
		}
	}
	return nil
}

// checkOutcome holds a child's result line to the table it must fill.
func checkOutcome(line []byte, defs []metricDef) error {
	var out outcome
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return fmt.Errorf("result line %q: %w", line, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		return fmt.Errorf("result line reports correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics in the result, %d in the table", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s: result has %+v (present: %v), the table's unit is %s", d.name, m, ok, d.unit)
		}
	}
	return nil
}

// runCheck runs the whole pipeline at 1/100 size — every workload,
// gated and traced, each in its own process — and holds each result
// line and BENCHMARK.json to the tables.
func runCheck(seed uint64) error {
	start := time.Now()
	if err := lockstep("BENCHMARK.json"); err != nil {
		return fmt.Errorf("BENCHMARK.json out of step: %w", err)
	}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, wl := range workloads {
			line, err := runChild(wl.name, seed, runSeconds, trace, 100)
			if err == nil {
				err = checkOutcome(line, defs)
			}
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", wl.name, trace, err)
			}
		}
	}
	fmt.Printf("# check passed in %.1fs\n", time.Since(start).Seconds())
	return nil
}
