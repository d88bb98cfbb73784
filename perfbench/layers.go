package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// tracedRun is the traced replay's spans plus what each request was.
type tracedRun struct {
	tr     *tracer
	ops    map[int]*tracedOp
	spans  string // where the spans were written
	replay int    // replayed operations
}

// runTraced replays the untraced run's operations in-process, in the order
// they were sent, for at most the timed phase's length, then the probes.
func runTraced(c config, in *inputs, p plan, u *untraced, dir string) (*tracedRun, error) {
	tr := newTracer()
	ops := map[int]*tracedOp{}
	var env *tracedEnv
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		repDir := filepath.Join(dir, fmt.Sprintf("traced-reports-%d", i))
		if in.reports != nil {
			if err := writeReports(repDir, in.reports); err != nil {
				return nil, err
			}
		}
		var err error
		if env, err = tracedSetup(tr, ops, in, p, repDir); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		for _, spec := range p.warmup {
			if err := env.run(spec, "setup"); err != nil {
				return nil, fmt.Errorf("traced warm-up: %w", err)
			}
		}
	}
	defer env.close()

	var seq []opRecord
	for _, l := range u.loops {
		seq = append(seq, l.ops...)
	}
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].start < seq[j].start })
	t := &tracedRun{tr: tr, ops: ops}
	stop := time.Now().Add(c.dur)
	for _, op := range seq {
		if t.replay > 0 && time.Now().After(stop) {
			break
		}
		if err := env.run(op.spec, "op"); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		t.replay++
	}
	for _, spec := range p.probes {
		if err := env.run(spec, "probe"); err != nil {
			return nil, fmt.Errorf("traced probe: %w", err)
		}
	}
	t.spans = filepath.Join(c.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.w.name, c.seed))
	if err := writeSpans(tr, t.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return t, nil
}

// layerDef is one per-layer metric computed from spans.
type layerDef struct {
	metric string
	span   string
	// setup metrics come from the set-up requests; the rest from every
	// replayed or probe request that contains the span.
	setup bool
	unit  string
}

var spanLayers = []layerDef{
	{"serve.ingest_decode_ms", "serve.ingest_decode", false, "ms"},
	{"serve.report_encode_ms", "serve.report_encode", false, "ms"},
	{"serve.read_encode_ms", "serve.read_encode", false, "ms"},
	{"telemetry.observe_ms", "telemetry.observe", false, "ms"},
	{"telemetry.window_read_ms", "telemetry.window_read", false, "ms"},
	{"telemetry.snapshot_load_s", "telemetry.snapshot_load", true, "s"},
	{"graph.build_ms", "graph.build", true, "ms"},
	{"graph.prune_ms", "graph.prune", false, "ms"},
	{"core.train_ms", "core.train", false, "ms"},
	{"core.test_ms", "core.test", false, "ms"},
	{"explain.ms", "explain", false, "ms"},
	{"anomaly.score_ms", "anomaly.score", false, "ms"},
	{"murphy.entity_summary_ms", "murphy.entity_summary", false, "ms"},
	{"murphy.topology_ms", "murphy.topology", false, "ms"},
	{"reportstore.append_ms", "reportstore.append", false, "ms"},
	{"reportstore.query_ms", "reportstore.query", false, "ms"},
	{"reportstore.open_ms", "reportstore.open", true, "ms"},
}

// isGlue reports whether a span is the benchmark's own request wrapper
// rather than a call into a layer.
func isGlue(name string) bool { return strings.HasPrefix(name, "op.") }

// Traced train/test wall time per call may differ from the daemon's own
// stage timing by at most this factor either way.
const stageTolerance = 1.5

// report adds the per-layer metrics and checks the layer accounting.
func (t *tracedRun) report(p plan, u *untraced, res *result) {
	self := selfTimes(t.tr.spans)
	// Per request: summed duration of each span name, layer self time, and
	// the root's duration.
	type reqAgg struct {
		byName map[string]float64
		layer  float64
		total  float64
	}
	reqs := map[int]*reqAgg{}
	var candidateMs []float64
	for _, s := range t.tr.spans {
		r := reqs[s.Req]
		if r == nil {
			r = &reqAgg{byName: map[string]float64{}}
			reqs[s.Req] = r
		}
		ms := float64(s.dur()) / 1e6
		r.byName[s.Name] += ms
		if s.Parent == 0 {
			r.total = ms
		} else if !isGlue(s.Name) {
			r.layer += float64(self[s.ID]) / 1e6
		}
		if s.Name == "core.test.candidate" {
			candidateMs = append(candidateMs, ms)
		}
	}
	ids := make([]int, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	for _, l := range spanLayers {
		var xs []float64
		for _, id := range ids {
			if (t.ops[id].role == "setup") != l.setup {
				continue
			}
			if v, ok := reqs[id].byName[l.span]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			res.problem("traced run has no %s span", l.span)
			continue
		}
		v := medianOf(xs)
		if l.unit == "s" {
			v /= 1000
		}
		res.add(l.metric, v, l.unit)
		res.linef("%s %.4f %s (median of %d)", l.metric, v, l.unit, len(xs))
	}
	if len(candidateMs) == 0 {
		res.problem("traced run evaluated no candidate")
	} else {
		res.add("core.test.candidate_ms", medianOf(candidateMs), "ms")
	}

	// Diagnosis counters, over replayed and probe diagnoses.
	var cands, factors, samples []float64
	var sumCand, sumCert, subHits, subAll float64
	var stHits, stRefits, stReselects, stDrift float64
	var trainMs, testCallMs []float64
	for _, id := range ids {
		op := t.ops[id]
		if op.role == "setup" || (op.kind != opDiagnose && op.kind != opSlice) || op.candidates == 0 {
			continue
		}
		cands = append(cands, float64(op.candidates))
		factors = append(factors, float64(op.factors))
		samples = append(samples, float64(op.samples))
		sumCand += float64(op.candidates)
		sumCert += float64(op.certified)
		subHits += float64(op.subHits)
		subAll += float64(op.subHits + op.subMis)
		trainMs = append(trainMs, reqs[id].byName["core.train"])
		testCallMs = append(testCallMs, reqs[id].byName["core.test"])
		stHits += float64(op.store.Hits)
		stRefits += float64(op.store.Refits)
		stReselects += float64(op.store.Reselects)
		stDrift += float64(op.store.DriftTrips)
	}
	if len(cands) == 0 {
		res.problem("traced run made no diagnosis")
		return
	}
	n := float64(len(cands))
	res.add("graph.candidates", medianOf(cands), "count")
	res.add("graph.subgraph_hit_ratio", ratio(subHits, subAll), "ratio")
	res.add("core.train.factors", medianOf(factors), "count")
	res.add("core.train.store_hit_ratio", ratio(stHits, stHits+stRefits), "ratio")
	res.add("core.train.refits", stRefits/n, "count")
	res.add("core.train.reselects", stReselects/n, "count")
	res.add("core.train.drift_trips", stDrift/n, "count")
	res.add("core.test.samples", medianOf(samples), "count")
	res.add("core.test.samples_per_s", ratio(sum(samples), sum(testCallMs)/1000), "1/s")
	res.add("core.test.certified_ratio", ratio(sumCert, sumCand), "ratio")

	// Layer accounting over the replayed operations.
	var layer, total []float64
	for _, id := range ids {
		if t.ops[id].role != "op" {
			continue
		}
		layer = append(layer, reqs[id].layer)
		total = append(total, reqs[id].total)
	}
	explained := ratio(sum(layer), sum(total))
	res.add("trace.explained_ratio", explained, "ratio")
	head, _ := u.timedOps()
	untracedP50 := medianOf(latencies(head, opLat))
	remainder := untracedP50 - medianOf(layer)
	res.add("serve.remainder_ms", remainder, "ms")
	res.linef("trace: %d spans in %s; %d replayed operations, %d requests in all", len(t.tr.spans), t.spans, t.replay, len(ids))
	res.linef("trace.explained_ratio %.4f (target >= 0.90): unexplained %.4f ms per operation; serve.remainder_ms %.4f ms (untraced p50 %.4f ms - traced layer sum %.4f ms)",
		explained, (sum(total)-sum(layer))/float64(len(total)), remainder, untracedP50, medianOf(layer))
	if explained < 0.90 {
		res.linef("SHORTFALL trace.explained_ratio %.4f is below the 0.90 target by %.4f", explained, 0.90-explained)
	}

	// Daemon-side queue and wall times, and counter deltas per operation.
	var queued, wall []float64
	for _, op := range u.diagnoseRecords() {
		queued = append(queued, op.queuedMs)
		wall = append(wall, op.wallMs)
	}
	if len(queued) == 0 {
		res.problem("untraced run made no diagnosis")
	} else {
		res.add("serve.queued_ms", medianOf(queued), "ms")
		res.add("serve.diag_wall_ms", medianOf(wall), "ms")
	}
	ops := float64(len(head))
	for _, c := range obsCounters {
		delta := u.after.Counters[c.name] - u.before.Counters[c.name]
		res.add("obs."+c.name, ratio(float64(delta), ops), "count/op")
		res.linef("obs.%s %d over %d operations", c.name, delta, len(head))
	}

	// The traced train/test time per call against the daemon's own stage
	// timing, over every diagnosis after set-up.
	for _, st := range []struct {
		stage  string
		traced []float64
	}{{"train", trainMs}, {"test", testCallMs}} {
		calls0, wall0 := u.before.stage(st.stage)
		calls1, wall1 := u.final.stage(st.stage)
		if calls1 == calls0 {
			res.problem("daemon recorded no %s stage after set-up", st.stage)
			continue
		}
		daemonMs := float64(wall1-wall0) / float64(time.Millisecond) / float64(calls1-calls0)
		tracedMs := sum(st.traced) / float64(len(st.traced))
		r := tracedMs / daemonMs
		res.linef("self-check stage_%s traced %.4f ms vs daemon %.4f ms per call (ratio %.3f, tolerance ×%.1f)", st.stage, tracedMs, daemonMs, r, stageTolerance)
		if r > stageTolerance || r < 1/stageTolerance {
			res.problem("traced core.%s_ms %.3f ms disagrees with the daemon's %.3f ms per call beyond ×%.1f", st.stage, tracedMs, daemonMs, stageTolerance)
		}
	}
}

// obsCounters are the daemon counters reported per operation, with the
// direction an optimisation would move them.
var obsCounters = []struct{ name, better string }{
	{"gibbs_samples", "lower"}, {"candidates_tested", "lower"}, {"causes_certified", "higher"},
	{"factors_trained", "lower"}, {"subgraph_cache_hits", "higher"}, {"subgraph_cache_misses", "lower"},
	{"inctrain_hits", "higher"}, {"inctrain_refits", "lower"}, {"inctrain_reselects", "lower"},
	{"inctrain_slides", "lower"}, {"ingest_points", "higher"}, {"reports_persisted", "higher"},
	{"diag_completed", "higher"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
