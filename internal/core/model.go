package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// metricRef names one metric of one entity.
type metricRef struct {
	entity telemetry.EntityID
	metric string
}

func (r metricRef) String() string { return string(r.entity) + "/" + r.metric }

// factor is the learned per-metric factor: a model predicting one metric of
// an entity from selected neighbor metrics in the same time slice. The MRF's
// P_v is the product of its per-metric factors.
//
// The statistics below are computed eagerly by every training pass; the
// learned regression (selected features and trained model) lives in the
// factor's fit cell, which a full retrain fills only when something reads it.
type factor struct {
	target metricRef
	// cell holds the selected features and the trained model. Rebind copies
	// share it, so a factor is fitted at most once whichever copy asks.
	cell *fitCell
	// hmean/hstd are the historical mean and std of the target metric over
	// the training window; used for counterfactual placement.
	hmean, hstd float64
	// med and madScale are the training-window median and normal-consistent
	// MAD scale, kept so the robust anomaly score can be recomputed when a
	// model is rebound to a different diagnosis slice.
	med, madScale float64
	// rscore is |robust z| of the current value against the training
	// window (median/MAD). Plain z-scores of step anomalies saturate at
	// √((1-p)/p) regardless of magnitude once the incident is inside the
	// window, so ranking uses the robust score instead.
	rscore float64
	// novel marks a metric with too little observed history to judge
	// normality (a newly spawned entity, or erased history). Pruning treats
	// such entities conservatively: they cannot be certified normal.
	novel bool
}

// robustScoreAt recomputes the factor's anomaly score for a value v.
func (f *factor) robustScoreAt(v float64) float64 {
	var z float64
	switch {
	case f.madScale > 0:
		z = (v - f.med) / f.madScale
	case f.hstd > 0:
		z = (v - f.hmean) / f.hstd
	case v != f.med:
		z = 1e6
	}
	if z > 1e6 {
		z = 1e6
	}
	if z < -1e6 {
		z = -1e6
	}
	return math.Abs(z)
}

// Model is a trained MRF over a relationship graph: one factor per (entity,
// metric) pair, learned online from the trailing training window (§4.2
// "Model training"). It also caches the current (latest-slice) value of
// every metric, which is the state the inference algorithm perturbs.
type Model struct {
	cfg     Config
	db      *telemetry.DB
	g       *graph.Graph
	factors map[metricRef]*factor
	// current holds the value of every metric at the diagnosis time slice.
	current map[metricRef]float64
	// metricsOf caches the metric names per entity.
	metricsOf map[telemetry.EntityID][]string
	// trainLo/trainHi is the half-open training window on the slice grid.
	trainLo, trainHi int
	// now is the diagnosis time slice (the last slice of the window).
	now int
	// readFailures records telemetry reads that failed even after the
	// source's own resilience; training degraded each to missing data.
	readFailures []ReadFailure
	// evalHook, when set, runs at the start of every candidate evaluation.
	// It is a fault-injection seam: a hook that panics or stalls models a
	// poisoned candidate evaluator. Production diagnoses leave it nil.
	evalHook func(telemetry.EntityID)
	// paths memoizes shortest-path subgraphs keyed (candidate, symptom):
	// every candidate of one diagnosis shares the symptom's reverse BFS, and
	// repeated diagnoses reuse whole subgraphs. Shared (by pointer) with
	// Rebind copies — the graph is immutable after Build.
	paths *graph.SubgraphCache
	// arenas pools the Gibbs resampler's scratch buffers across candidate
	// evaluations and diagnosis workers.
	arenas *arenaPool
	// kern holds the sampling kernel's compiled artifacts — the metricRef →
	// slot table and the per-(candidate, symptom) execution plan cache.
	// Shared (by pointer) with Rebind copies: plans depend only on factor
	// topology and trained weights, which Rebind preserves.
	kern *kernelTables
	// base caches the slot-indexed flat copies of `current` the kernel
	// starts each pass from. Per-model (Rebind changes `current`).
	base *slotBase
	// obs receives pipeline instrumentation (stage spans, counters,
	// histograms, progress events). Never nil: trainAt defaults it to
	// obs.Global(), which is disabled unless something enables it, so the
	// hot paths pay only an atomic-load guard.
	obs *obs.Recorder
}

// ReadFailure records one training-window read that failed after the
// telemetry source's retries were exhausted. The affected series was
// degraded to missing data (placeholder-filled), per the paper's
// missing-history rule, instead of failing the diagnosis.
type ReadFailure struct {
	Entity telemetry.EntityID
	Metric string
	Err    error
}

// ReadFailures lists the degraded-to-missing reads of the training pass.
func (m *Model) ReadFailures() []ReadFailure { return m.readFailures }

// SetEvalHook installs a hook invoked at the start of every candidate
// evaluation, before any sampling. It exists for fault-injection tests and
// chaos drills — a hook that panics models a poisoned evaluator, which the
// diagnosis must absorb as a failed candidate rather than crash on.
func (m *Model) SetEvalHook(h func(telemetry.EntityID)) { m.evalHook = h }

// SetRecorder swaps the model's instrumentation recorder. rec must not be
// nil; pass a disabled recorder to silence a model trained with stats on.
// Not safe to call concurrently with a running diagnosis.
func (m *Model) SetRecorder(rec *obs.Recorder) { m.obs = rec }

// TrainOpts collects the optional knobs of a training pass. The zero value
// with Now set to -1 trains on the trailing window of the whole database,
// reading it directly with the default ridge trainer.
type TrainOpts struct {
	// Src interposes the resilient/faulty read path on the training-window
	// reads; nil reads the database directly (infallible).
	Src telemetry.Source
	// Now is the diagnosis time slice (training window endpoint, inclusive);
	// negative means the database's last slice.
	Now int
	// Trainer overrides the per-factor regression model; nil uses ridge with
	// cfg.Lambda (the paper's production choice).
	Trainer regress.Trainer
	// Store, when non-nil, reuses training work across calls: a repeat at
	// the same window hands back the stored factors unchanged, and a slid
	// window updates per-(entity, window, hyperparameters) sufficient
	// statistics instead of recomputing every factor from scratch (see
	// FactorStore). It is consulted only on the default-trainer, direct-read
	// path; a custom Trainer or an interposed Src trains from scratch.
	Store *FactorStore
	// Obs receives pipeline instrumentation for this model (training spans
	// and counters now, inference spans on every later Diagnose call). Nil
	// falls back to obs.Global(), which is disabled by default.
	Obs *obs.Recorder
	// Workers bounds the training worker pool that fans the per-series
	// preprocessing (and, on the factor-store path, the per-factor updates)
	// across cores. Zero or one runs the historical serial loop (no
	// goroutines, no channels); any larger count produces bit-identical
	// factors, so it is purely a latency knob. A full retrain's ridge fits
	// are deferred and run on the pool of whatever demands them
	// (DiagnoseContext's workers, FitAll).
	Workers int
}

// TrainOpt is the training entry point: it fits the MRF on the database
// restricted to the relationship graph, using the cfg.TrainWindow trailing
// slices ending at opts.Now (a negative Now means the database's last slice).
// Murphy never keeps pre-trained models: this runs on every diagnosis so the
// window includes in-incident points. Training aborts with the context's
// error as soon as the context is done. The optional knobs of TrainOpts
// interpose a read path, swap the regression trainer, reuse work through a
// FactorStore, and fan the series preparation out over a worker pool.
//
// A full retrain (no store in play) prepares every series eagerly — the
// training columns, their moments, and each factor's robust statistics,
// which pruning, ranking and the counterfactual start read — but defers each
// factor's feature ranking and ridge fit until something reads the factor:
// a diagnosis fits only the factors on its candidates' shortest-path
// subgraphs (§4.2), WhatIf only those it propagates through, and FitAll
// everything. A fit error surfaces at that point, not here.
//
// With opts.Src set, a read that still fails after the source's own
// resilience does not fail training: the series degrades to missing data
// (the §4.2 placeholder rule) and the failure is recorded on the model
// (ReadFailures). db remains the handle used for Rebind and explanation
// lookups.
func TrainOpt(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config, opts TrainOpts) (*Model, error) {
	if opts.Now < 0 {
		opts.Now = db.Len() - 1
	}
	return trainAt(ctx, db, g, cfg, opts)
}

// trainAt is the shared training pass. opts.Src == nil reads the database
// directly (infallible); a non-nil source interposes the resilient/faulty
// read path, with per-series degradation on unrecoverable errors.
func trainAt(ctx context.Context, db *telemetry.DB, g *graph.Graph, cfg Config, opts TrainOpts) (*Model, error) {
	src, trainer := opts.Src, opts.Trainer
	now := opts.Now
	rec := opts.Obs
	if rec == nil {
		rec = obs.Global()
	}
	sp := rec.StartStage(obs.StageTrain)
	defer sp.End()
	cfg = cfg.sanitized()
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if now < 0 || now >= db.Len() {
		return nil, fmt.Errorf("core: training endpoint %d outside timeline [0,%d)", now, db.Len())
	}
	if trainer == nil {
		trainer = regress.RidgeTrainer(cfg.Lambda)
	}
	m := &Model{
		cfg:       cfg,
		db:        db,
		g:         g,
		factors:   make(map[metricRef]*factor),
		current:   make(map[metricRef]float64),
		metricsOf: make(map[telemetry.EntityID][]string),
		now:       now,
		paths:     graph.NewSubgraphCache(g),
		arenas:    newArenaPool(),
		kern:      newKernelTables(),
		base:      &slotBase{},
		obs:       rec,
	}
	if rec.Enabled() {
		// The hook costs a closure call per subgraph lookup, so it is only
		// installed when the recorder is live at training time.
		m.paths.SetHook(func(hit bool) {
			if hit {
				rec.Add(obs.CtrSubgraphCacheHits, 1)
			} else {
				rec.Add(obs.CtrSubgraphCacheMisses, 1)
			}
		})
	}
	m.trainHi = now + 1
	m.trainLo = m.trainHi - cfg.TrainWindow
	if m.trainLo < 0 {
		m.trainLo = 0
	}
	n := m.trainHi - m.trainLo
	if n < 8 {
		return nil, fmt.Errorf("core: training window too short (%d slices)", n)
	}

	// The incremental store is only sound on the default (deterministic,
	// stateless) trainer and the direct (infallible) read path. When it is in play, the incremental pass replaces the whole
	// from-scratch pipeline below.
	if store := opts.Store; store != nil && opts.Trainer == nil && src == nil {
		if err := store.train(ctx, m, opts, rec); err != nil {
			return nil, err
		}
		return m, nil
	}

	// readRaw fetches one raw training window, through src when present.
	// A context abort fails training; any other read error (already past
	// the source's own retries) degrades the series to all-missing, which
	// the placeholder machinery below absorbs exactly like never-observed
	// history.
	readRaw := func(id telemetry.EntityID, name string) ([]float64, error) {
		if src == nil {
			return db.RawWindow(id, name, m.trainLo, m.trainHi), nil
		}
		w, err := src.ReadRawWindow(ctx, id, name, m.trainLo, m.trainHi)
		if err == nil && len(w) == m.trainHi-m.trainLo {
			return w, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: training cancelled: %w", cerr)
		}
		if err == nil {
			err = fmt.Errorf("core: short read (%d of %d slices)", len(w), m.trainHi-m.trainLo)
		}
		m.readFailures = append(m.readFailures, ReadFailure{Entity: id, Metric: name, Err: err})
		rec.Add(obs.CtrReadFailures, 1)
		w = make([]float64, m.trainHi-m.trainLo)
		for i := range w {
			w[i] = math.NaN()
		}
		return w, nil
	}
	metricNames := func(id telemetry.EntityID) []string {
		if src == nil {
			return db.MetricNames(id)
		}
		return src.MetricNames(id)
	}

	// Cache training windows for every metric of every node once. Missing
	// observations get a placeholder (§4.2 edge cases); the placeholder is
	// the metric's observed median — zero-filling would fabricate a step
	// aligned with whenever observation began, which pollutes correlations.
	//
	// Enumeration and raw reads stay serial: sources may be stateful (fault
	// injectors, rate-limited collectors) and the order of recorded read
	// failures is part of the model's contract. The pure per-series work —
	// robust statistics, placeholder fill, the moments for the Pearson
	// ranking and the ridge standardization — fans out below.
	type seriesPrep struct {
		ref metricRef
		raw []float64 // the window as read (NaN = missing)
		// med/madScale/novel are the series' robust statistics as a factor
		// target; see the anomaly-scoring rule in the prep pass.
		med, madScale float64
		novel         bool
	}
	var prep []*seriesPrep
	for _, id := range g.IDs() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: training cancelled: %w", err)
		}
		names := metricNames(id)
		m.metricsOf[id] = names
		for _, name := range names {
			w, err := readRaw(id, name)
			if err != nil {
				return nil, err
			}
			prep = append(prep, &seriesPrep{ref: metricRef{id, name}, raw: w})
		}
	}
	// cols[i] is series i's training column (placeholder-filled; raw itself
	// when nothing is missing) with its moments. The model keeps these, not
	// the prep records, so a series with missing slices does not keep its
	// raw window alive next to the filled column.
	cols := make([]stats.Centered, len(prep))
	if err := forEachIndex(ctx, opts.Workers, len(prep), func(i int) error {
		p := prep[i]
		obsY := p.raw
		if hasMissing(p.raw) {
			obsY = observedOnly(p.raw)
		}
		scratch := getScratch(n)
		defer putScratch(scratch)
		// One selection pass gives both the placeholder (the observed
		// median) and the target's robust center and scale.
		med, mad := stats.MedianMAD(obsY, *scratch)
		col := p.raw
		if len(obsY) < len(p.raw) {
			def := med
			if def != def {
				def = 0 // nothing observed at all: the type default
			}
			col = append([]float64(nil), p.raw...)
			for t, v := range col {
				if v != v {
					col[t] = def
				}
			}
		}
		// Anomaly scoring uses only actually-observed history: an entity
		// whose past was never recorded (newly spawned, or the Table 2
		// missing-values corruption) must be judged against what was seen,
		// not against the training-time placeholders. The in-incident tail
		// does not count as judgeable history: if everything observed is
		// recent (post-erasure), normality cannot be certified, and the
		// statistics fall back to the filled column.
		if len(obsY) < n/4 {
			p.novel = true
			med, mad = stats.MedianMAD(col, *scratch)
		}
		p.med, p.madScale = med, 1.4826*mad
		cols[i] = stats.Center(col)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: training cancelled: %w", err)
	}
	fs := &fitSource{
		series:  make(map[metricRef]*stats.Centered, len(prep)),
		trainer: trainer,
		topB:    cfg.TopB,
		rec:     rec,
	}
	for i, p := range prep {
		y := &cols[i]
		fs.series[p.ref] = y
		m.current[p.ref] = y.Src[n-1]
		// The historical mean/std come from the centered view; its sum of
		// squares was accumulated in MeanStd's order, so the bits match.
		f := &factor{
			target: p.ref, hmean: y.Mean,
			med: p.med, madScale: p.madScale, novel: p.novel,
		}
		if n >= 2 {
			f.hstd = math.Sqrt(y.SumSq / float64(n-1))
		}
		f.rscore = f.robustScoreAt(y.Src[n-1])
		m.factors[p.ref] = f
	}

	// Each factor's fit waits in its cell until something demands it. The
	// candidate list and its ranking tie-break keys are built once per
	// entity and shared by the entity's cells (the tie-break used to call
	// ref.String() inside the sort comparator — two string allocations per
	// comparison).
	for _, id := range g.IDs() {
		var cand []metricRef
		for _, nb := range g.InIDs(id) {
			for _, name := range m.metricsOf[nb] {
				cand = append(cand, metricRef{nb, name})
			}
		}
		candKeys := make([]string, len(cand))
		candCtr := make([]*stats.Centered, len(cand))
		for i, c := range cand {
			candKeys[i] = c.String()
			candCtr[i] = fs.series[c]
		}
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			m.factors[ref].cell = &fitCell{job: &fitJob{
				src: fs, ref: ref,
				cand: cand, candKeys: candKeys, candCtr: candCtr,
			}}
		}
	}
	return m, nil
}

// Rebind returns a copy of the model whose diagnosis slice is `now`: the
// factors stay as trained, but every current metric value and anomaly score
// is re-read from the database at the new slice. This is how the §6.5.1
// offline-training comparison evaluates a stale model against in-incident
// state.
func (m *Model) Rebind(now int) (*Model, error) {
	if now < 0 || now >= m.db.Len() {
		return nil, fmt.Errorf("core: rebind slice %d outside timeline [0,%d)", now, m.db.Len())
	}
	nm := *m
	nm.now = now
	nm.base = &slotBase{} // the flat start-state vectors track `current`
	nm.current = make(map[metricRef]float64, len(m.current))
	nm.factors = make(map[metricRef]*factor, len(m.factors))
	for _, id := range m.g.IDs() {
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			w := m.db.Window(id, name, now, now+1)
			nm.current[ref] = w[0]
			if old := m.factors[ref]; old != nil {
				f := *old
				f.rscore = f.robustScoreAt(w[0])
				nm.factors[ref] = &f
			}
		}
	}
	return &nm, nil
}

// Graph returns the relationship graph the model was trained on.
func (m *Model) Graph() *graph.Graph { return m.g }

// Config returns the sanitized configuration in effect.
func (m *Model) Config() Config { return m.cfg }

// Now returns the diagnosis time slice.
func (m *Model) Now() int { return m.now }

// NumFactors returns the number of trained (entity, metric) factors.
func (m *Model) NumFactors() int { return len(m.factors) }

// CurrentValue returns the value of (id, metric) at the diagnosis slice.
func (m *Model) CurrentValue(id telemetry.EntityID, metric string) float64 {
	return m.current[metricRef{id, metric}]
}

// AnomalyScore returns the entity's anomaly score: the maximum robust |z|
// of any of its current metrics against their training-window history
// (how many deviations the metric sits from its historical center). Root
// causes are ranked by this score (§4.2 "Ranking the root causes").
func (m *Model) AnomalyScore(id telemetry.EntityID) float64 {
	best := 0.0
	for _, name := range m.metricsOf[id] {
		f := m.factors[metricRef{id, name}]
		if f == nil {
			continue
		}
		if f.rscore > best {
			best = f.rscore
		}
	}
	return best
}

// conservativeThresholds are the paper's absolute pruning thresholds
// (footnote 7): 25% utilization, 0.1% drop rate, 50 sessions. Metrics whose
// units are environment-specific (latency, RPS, raw byte rates) have no
// absolute threshold and rely on the z-score test.
var conservativeThresholds = map[string]float64{
	telemetry.MetricCPU:        0.25,
	telemetry.MetricMem:        0.25,
	telemetry.MetricDiskUtil:   0.25,
	telemetry.MetricBufferUtil: 0.25,
	telemetry.MetricSpaceUtil:  0.25,
	telemetry.MetricPktDrops:   0.001,
	telemetry.MetricLoss:       0.001,
	telemetry.MetricRetransmit: 0.01,
	telemetry.MetricSessions:   50,
}

// IsAnomalous reports whether the entity clears the conservative pruning
// criteria of §4.2: some current metric is at least cfg.AnomalyZ robust
// standard deviations from its observed history, or exceeds the paper's
// absolute conservative threshold for its kind. The absolute arm keeps the
// search usable for entities whose history was never observed.
func (m *Model) IsAnomalous(id telemetry.EntityID) bool {
	if m.AnomalyScore(id) >= m.cfg.AnomalyZ {
		return true
	}
	for _, name := range m.metricsOf[id] {
		ref := metricRef{id, name}
		if f := m.factors[ref]; f != nil && f.novel {
			return true
		}
		th, ok := conservativeThresholds[name]
		if !ok {
			continue
		}
		if m.current[ref] > th {
			return true
		}
	}
	return false
}

// MetricZ returns the z-score of one current metric against its history.
func (m *Model) MetricZ(id telemetry.EntityID, metric string) float64 {
	ref := metricRef{id, metric}
	f := m.factors[ref]
	if f == nil || f.hstd == 0 {
		return 0
	}
	return (m.current[ref] - f.hmean) / f.hstd
}

// PredictMetric returns the factor's mean prediction for (id, metric) given
// the current values of its selected features, fitting the factor first if
// nothing has yet. ok is false when there is no such factor, or its fit
// fails. It is exported for the metric prediction micro-benchmarks (Fig 8a)
// and the cyclic-effects experiment (Fig 8b / Appendix A.2).
func (m *Model) PredictMetric(id telemetry.EntityID, metric string) (float64, bool) {
	f := m.factors[metricRef{id, metric}]
	if f == nil {
		return 0, false
	}
	c, err := f.fitted()
	if err != nil {
		return 0, false
	}
	return c.model.Predict(featureVector(c, m.current)), true
}

// hasMissing reports whether a raw window holds any NaN (missing) slice.
func hasMissing(w []float64) bool {
	for _, v := range w {
		if v != v {
			return true
		}
	}
	return false
}

// scratchPool recycles the working buffers of the per-series robust
// statistics, so a full retrain allocates none per series.
var scratchPool sync.Pool

func getScratch(n int) *[]float64 {
	if b, ok := scratchPool.Get().(*[]float64); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]float64, n)
	return &b
}

func putScratch(b *[]float64) { scratchPool.Put(b) }

// observedOnly filters NaN (missing) observations out of a raw window.
func observedOnly(w []float64) []float64 {
	out := make([]float64, 0, len(w))
	for _, v := range w {
		if v == v {
			out = append(out, v)
		}
	}
	return out
}

// featureVector assembles a fitted factor's input from a state map.
func featureVector(c *fitCell, state map[metricRef]float64) []float64 {
	x := make([]float64, len(c.features))
	for j, fr := range c.features {
		x[j] = state[fr]
	}
	return x
}
