package main

import "sort"

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run. The op_* metrics time each
// workload's operations (see plan.op). The bounds are wide because this
// kind of 2-vCPU machine drifts by 10-16% from one half-minute run to the
// next on the same inputs; setup_s has the widest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.24},
	{"op_tail_ms", "ms", "lower", 0.24},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.queued_ms", "ms", "lower", 0},
		{"serve.diag_wall_ms", "ms", "lower", 0},
		{"serve.remainder_ms", "ms", "lower", 0},
		{"core.test.candidate_ms", "ms", "lower", 0},
		{"graph.candidates", "count", "lower", 0},
		{"graph.subgraph_hit_ratio", "ratio", "higher", 0},
		{"core.train.factors", "count", "lower", 0},
		{"core.train.store_hit_ratio", "ratio", "higher", 0},
		{"core.train.refits", "count", "lower", 0},
		{"core.train.reselects", "count", "lower", 0},
		{"core.train.drift_trips", "count", "lower", 0},
		{"core.test.samples", "count", "lower", 0},
		{"core.test.samples_per_s", "1/s", "higher", 0},
		{"core.test.certified_ratio", "ratio", "higher", 0},
		{"trace.explained_ratio", "ratio", "higher", 0},
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{l.metric, l.unit, "lower", 0})
	}
	for _, c := range obsCounters {
		defs = append(defs, metricDef{"obs." + c.name, "count/op", c.better, 0})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}()

// checkMetricSet reports a problem unless the result carries exactly the
// declared metrics, each with its declared unit and a legal name.
func checkMetricSet(res *result, want []metricDef) {
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		m, ok := res.Metrics[d.Name]
		switch {
		case !validName(d.Name):
			res.problem("invalid metric name %q", d.Name)
		case !ok:
			res.problem("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			res.problem("metric %s in %s, declared %s", d.Name, m.Unit, d.Unit)
		}
	}
	var extra []string
	for name := range res.Metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		res.problem("undeclared metrics %v", extra)
	}
}
