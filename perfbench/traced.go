package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"murphy"
	"murphy/internal/anomaly"
	"murphy/internal/core"
	"murphy/internal/explain"
	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/reportstore"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// tracedEnv replays a workload in-process, calling each layer's public
// functions the way murphyd does and wrapping every call in a span.
type tracedEnv struct {
	tr    *tracer
	in    *inputs
	cfg   murphy.Config
	db    *telemetry.DB
	sys   *murphy.System
	store *core.FactorStore // nil unless the workload trains incrementally
	rs    *reportstore.Store
	rec   *obs.Recorder
	det   *anomaly.Detector
	seq   int
	// ops describes each traced operation, by request id.
	ops map[int]*tracedOp
}

// tracedOp is what the traced run knows about one operation besides its
// spans: which kind of operation it was and the counter deltas it caused.
type tracedOp struct {
	role string // "op" (replayed), "probe" or "setup"
	kind opKind
	// Diagnosis detail.
	candidates      int
	certified       int
	factors         int
	samples         int64
	subHits, subMis int64
	store           core.FactorStoreStats // delta
}

// daemonConfig mirrors how murphyd turns its flags into a diagnosis config.
func daemonConfig(window int) murphy.Config {
	cfg := murphy.DefaultConfig()
	cfg.Samples = diagSamples
	cfg.TrainWindow = window
	return cfg
}

// tracedSetup loads the snapshot and opens the stores the way murphyd boots.
// Every request it traces is described in ops.
func tracedSetup(tr *tracer, ops map[int]*tracedOp, in *inputs, p plan, reportDir string) (*tracedEnv, error) {
	e := &tracedEnv{tr: tr, in: in, cfg: daemonConfig(p.window), det: anomaly.NewDetector(), ops: ops}
	root := tr.begin("op.setup")
	e.ops[root.Req] = &tracedOp{role: "setup"}
	defer tr.end(root)
	var err error
	tr.do("telemetry.snapshot_load", func() { e.db, err = telemetry.ReadJSON(bytes.NewReader(in.snapshot)) })
	if err != nil {
		return nil, err
	}
	tr.do("graph.build", func() { _, err = graph.Build(e.db, e.db.Entities(), -1) })
	if err != nil {
		return nil, err
	}
	e.rec = obs.New()
	e.rec.Enable()
	opts := []murphy.Option{murphy.WithConfig(e.cfg), murphy.WithRecorder(e.rec)}
	if p.inctrain {
		e.store = core.NewFactorStore()
		e.store.SetPolicy(0, 0)
		opts = append(opts, murphy.WithIncrementalTraining(murphy.IncrementalTraining{Store: e.store}))
	}
	tr.do("murphy.new", func() { e.sys, err = murphy.New(e.db, opts...) })
	if err != nil {
		return nil, err
	}
	tr.do("reportstore.open", func() { e.rs, err = reportstore.Open(reportDir, reportstore.Options{MaxRecords: 10000}) })
	return e, err
}

func (e *tracedEnv) close() {
	if e.rs != nil {
		_ = e.rs.Close()
	}
}

// run executes one operation under a root span.
func (e *tracedEnv) run(spec opSpec, role string) error {
	root := e.tr.begin("op." + role)
	op := &tracedOp{role: role, kind: spec.kind}
	e.ops[root.Req] = op
	var err error
	switch spec.kind {
	case opDiagnose:
		err = e.diagnose(spec.sym, op)
	case opIngest:
		err = e.ingest(spec.batch)
	case opSlice:
		if err = e.ingest(spec.batch); err == nil {
			err = e.diagnose(spec.sym, op)
		}
	case opRead:
		err = e.read(spec.read)
	}
	e.tr.end(root)
	if err != nil {
		return err
	}
	// Calls that are not on the daemon's path for this operation but whose
	// cost the per-layer metrics report run as separate probe requests, so
	// they do not inflate the operation's own total.
	switch {
	case spec.kind == opDiagnose || spec.kind == opSlice:
		e.probe(opDiagnose, "telemetry.window_read", func() { e.windowRead() })
	case spec.kind == opRead && spec.read.kind == readPerf:
		e.probe(opRead, "anomaly.score", func() { e.scoreEntity(spec.read.entity) })
	}
	return nil
}

func (e *tracedEnv) probe(kind opKind, name string, fn func()) {
	root := e.tr.begin("op.probe")
	e.ops[root.Req] = &tracedOp{role: "probe", kind: kind}
	e.tr.do(name, fn)
	e.tr.end(root)
}

// windowRead reads every series over one training window, as training does.
func (e *tracedEnv) windowRead() {
	hi := e.db.Len()
	lo := hi - e.cfg.TrainWindow
	if lo < 0 {
		lo = 0
	}
	for _, id := range e.db.Entities() {
		for _, m := range e.db.MetricNames(id) {
			_ = e.db.Window(id, m, lo, hi)
		}
	}
}

// scoreEntity scores every metric of one entity with the anomaly detector.
func (e *tracedEnv) scoreEntity(id telemetry.EntityID) {
	now := e.db.Len() - 1
	for _, m := range e.db.MetricNames(id) {
		_, _ = e.det.Score(e.db, id, m, now)
	}
}

// diagnose mirrors serve's worker: train, prune, test every candidate,
// rank, explain, encode the record and append it durably.
func (e *tracedEnv) diagnose(sym telemetry.Symptom, op *tracedOp) error {
	tr := e.tr
	samples0 := e.rec.Counter(obs.CtrGibbsSamples)
	hits0, mis0 := e.rec.Counter(obs.CtrSubgraphCacheHits), e.rec.Counter(obs.CtrSubgraphCacheMisses)
	var st0 core.FactorStoreStats
	if e.store != nil {
		st0 = e.store.Stats()
	}
	enqueued := time.Now()

	var model *core.Model
	var err error
	tr.do("core.train", func() {
		model, err = core.TrainOpt(context.Background(), e.db, e.sys.Graph(), e.cfg,
			core.TrainOpts{Now: -1, Store: e.store, Obs: e.rec})
	})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	var cands []telemetry.EntityID
	tr.do("graph.prune", func() { cands = append(model.Candidates(sym.Entity), sym.Entity) })
	var causes []core.RootCause
	test := tr.begin("core.test")
	for _, c := range cands {
		s := tr.begin("core.test.candidate")
		rc, ok := model.EvaluateCandidate(c, sym)
		tr.end(s)
		if ok {
			causes = append(causes, rc)
		}
	}
	tr.end(test)
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].Score != causes[j].Score {
			return causes[i].Score > causes[j].Score
		}
		return causes[i].Entity < causes[j].Entity
	})
	rep := &murphy.Report{SchemaVersion: murphy.SchemaVersion, Symptom: sym, Candidates: cands}
	tr.do("explain", func() {
		lb := explain.NewLabeler(model, e.db, explain.DefaultThresholds())
		for _, c := range causes {
			mc := murphy.Cause{Entity: c.Entity, Score: c.Score, PValue: c.PValue, Effect: c.Effect, Path: c.Path, SamplesUsed: c.SamplesUsed}
			if chain, ok := explain.Explain(lb, e.sys.Graph(), c.Entity, sym.Entity); ok {
				mc.Explanation = chain.Render(e.db)
			}
			rep.Causes = append(rep.Causes, mc)
		}
	})
	since := model.Now() - e.cfg.TrainWindow
	if since < 0 {
		since = 0
	}
	rep.RecentChanges = e.db.EventsSince(since)
	e.seq++
	wire := &serve.ReportRecord{Seq: e.seq, Source: "api", Symptom: sym, Report: rep,
		WallMs: msSince(enqueued), CompletedAt: time.Now().UTC()}
	var payload []byte
	tr.do("serve.report_encode", func() { payload, err = json.Marshal(wire) })
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	srec := &reportstore.Record{Seq: int64(e.seq), At: wire.CompletedAt, Source: wire.Source,
		Entity: string(sym.Entity), Metric: sym.Metric, Payload: payload}
	if ent := e.db.Entity(sym.Entity); ent != nil {
		srec.App = ent.App
	}
	for _, c := range rep.Causes {
		srec.Causes = append(srec.Causes, string(c.Entity))
	}
	tr.do("reportstore.append", func() { _, err = e.rs.Append(srec) })
	if err != nil {
		return fmt.Errorf("append report: %w", err)
	}

	op.candidates, op.certified, op.factors = len(cands), len(causes), model.NumFactors()
	op.samples = e.rec.Counter(obs.CtrGibbsSamples) - samples0
	op.subHits = e.rec.Counter(obs.CtrSubgraphCacheHits) - hits0
	op.subMis = e.rec.Counter(obs.CtrSubgraphCacheMisses) - mis0
	if e.store != nil {
		st := e.store.Stats()
		op.store = core.FactorStoreStats{
			Hits: st.Hits - st0.Hits, Refits: st.Refits - st0.Refits, Reselects: st.Reselects - st0.Reselects,
			DriftTrips: st.DriftTrips - st0.DriftTrips, Slides: st.Slides - st0.Slides,
		}
	}
	return nil
}

// ingest mirrors serve's /ingest handler: decode the batch, then apply it.
func (e *tracedEnv) ingest(i int) error {
	var b serve.IngestBatch
	var err error
	e.tr.do("serve.ingest_decode", func() { err = json.NewDecoder(bytes.NewReader(e.in.batches[i])).Decode(&b) })
	if err != nil {
		return fmt.Errorf("decode batch: %w", err)
	}
	accepted := 0
	e.tr.do("telemetry.observe", func() {
		slice := e.db.Len()
		for _, p := range b.Observations {
			if e.db.Observe(p.Entity, p.Metric, slice, p.Value) == nil {
				accepted++
			}
		}
		for _, ev := range b.Events {
			_ = e.db.RecordEvent(telemetry.Event{Slice: slice, Kind: ev.Kind, Entity: ev.Entity, Detail: ev.Detail})
		}
	})
	if accepted != e.in.points[i] {
		return fmt.Errorf("traced ingest accepted %d of %d points", accepted, e.in.points[i])
	}
	_, err = json.Marshal(serve.IngestResult{Accepted: accepted, DBSlices: e.db.Len()})
	return err
}

// read mirrors the daemon's read handlers.
func (e *tracedEnv) read(r readReq) error {
	var v any
	var err error
	switch r.kind {
	case readPerf:
		e.tr.do("murphy.entity_summary", func() { v, err = e.sys.EntitySummary(r.entity, readWindow) })
	case readTopology:
		e.tr.do("murphy.topology", func() { v, err = e.sys.Topology(r.entity, readDepth) })
	case readReports:
		var p *reportstore.Page
		e.tr.do("reportstore.query", func() { p, err = e.rs.Query(reportstore.Query{Entity: string(r.entity), Limit: readLimit}) })
		if err == nil {
			page := &serve.ReportPage{NextCursor: p.NextCursor}
			for _, rec := range p.Records {
				page.Reports = append(page.Reports, rec.Payload)
			}
			page.Count = len(page.Reports)
			v = page
		}
	}
	if err != nil {
		return fmt.Errorf("read %s: %w", r.path(), err)
	}
	e.tr.do("serve.read_encode", func() {
		// The daemon indents its responses.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(v)
	})
	return err
}

// writeSpans writes the tracer's spans to path as JSON lines.
func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
