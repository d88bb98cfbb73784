package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics this
// program emits in step. PERFBENCH_UPDATE=1 rewrites the metric and workload
// lists from the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	const path = "../BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	want := f
	want.Workloads = nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	want.EndToEnd = endToEnd
	want.PerLayer = nil
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	got, _ := json.Marshal(f)
	exp, _ := json.Marshal(want)
	if bytes.Equal(got, exp) {
		return
	}
	if os.Getenv("PERFBENCH_UPDATE") == "1" {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Errorf("%s does not match the code; rerun with PERFBENCH_UPDATE=1", path)
}

func TestWorkloadReasonsFit(t *testing.T) {
	for _, w := range workloads {
		if !validName(w.name) || len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("workload %q: name or reason (%d chars) out of bounds", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) {
			t.Errorf("invalid metric name %q", d.Name)
		}
	}
}
