package main

import (
	"fmt"
	"strings"
	"testing"
)

// perfbenchOutput fakes perfbench's output for runs with the given
// op_p50_ms and ops_per_s values: a report line, then the JSON line.
func perfbenchOutput(p50s, rates []float64) string {
	var b strings.Builder
	for i := range p50s {
		fmt.Fprintf(&b, "workload enterprise-stream seed 2: inputs generated\n")
		fmt.Fprintf(&b, `{"correct":true,"attempted":40,"failed":%d,"metrics":{"op_p50_ms":{"value":%g,"unit":"ms"},"ops_per_s":{"value":%g,"unit":"1/s"},"core.test_ms":{"value":1,"unit":"ms"},"extra_count":{"value":3,"unit":"count"}}}`+"\n", i%2, p50s[i], rates[i])
	}
	return b.String()
}

var testSpec = spec{
	EndToEnd: []specMetric{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	},
	PerLayer: []specMetric{{Name: "core.test_ms", Unit: "ms", Better: "lower"}},
}

func TestSummarizePairs(t *testing.T) {
	base, err := readRuns(strings.NewReader(perfbenchOutput(
		[]float64{100, 110, 120, 130, 140}, []float64{10, 9, 8, 7, 6})))
	if err != nil {
		t.Fatal(err)
	}
	head, err := readRuns(strings.NewReader(perfbenchOutput(
		[]float64{90, 100, 120, 120, 130}, []float64{11, 10, 9, 7, 7})))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := summarize(&out, base, head, testSpec); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"5 pairs",
		// Lower is better: 4 wins, 1 tie, p = 2·(1/16).
		"| op_p50_ms (ms) | 120 [110, 130] | 120 [100, 120] | +0.0% | 4/5 (1 tied) | 0.125 |",
		// Higher is better: 4 wins, 1 tie.
		"| ops_per_s (1/s) | 8 [7, 9] | 9 [7, 10] | +12.5% | 4/5 (1 tied) | 0.125 |",
		"| core.test_ms (ms) | 1 [1, 1] | 1 [1, 1] | +0.0% | 0/5 (5 tied) | 1 |",
		// Not in the spec: no direction, so no wins or p.
		"| extra_count (count) | 3 [3, 3] | 3 [3, 3] | +0.0% | — | — |",
		"failed operations: base 2 of 200, head 2 of 200",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary lacks %q:\n%s", want, got)
		}
	}

	if err := summarize(&out, base, head[:4], testSpec); err == nil {
		t.Error("unpaired runs were summarised")
	}
	if _, err := readRuns(strings.NewReader("no results here\n")); err == nil {
		t.Error("input without result lines was accepted")
	}
}
