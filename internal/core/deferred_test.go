package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"murphy/internal/enterprise"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// A full retrain fits a factor only when something reads it. These tests
// hold the deferred model to the eager one — the same training with every
// factor fitted up front by FitAll — bit for bit, on every reader.

// deferredFixture is a training recipe: the database, graph and
// configuration, and the symptom to diagnose.
type deferredFixture struct {
	name string
	db   *telemetry.DB
	g    *graph.Graph
	cfg  Config
	sym  telemetry.Symptom
}

// train runs a full retrain of the fixture; eager fits every factor before
// returning.
func (fx deferredFixture) train(t testing.TB, workers int, eager bool, rec *obs.Recorder) *Model {
	t.Helper()
	ctx := context.Background()
	m, err := TrainOpt(ctx, fx.db, fx.g, fx.cfg, TrainOpts{Now: -1, Workers: workers, Obs: rec})
	if err == nil && eager {
		err = m.FitAll(ctx, workers)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// weekFixture is the hotel-triage regime: the contention scenario at 2,100
// steps with a one-week (2,016-slice) training window.
func weekFixture(t testing.TB, samples int) deferredFixture {
	t.Helper()
	opts := microsim.DefaultContentionOptions()
	opts.Steps = 2100
	sc, err := microsim.Contention(opts)
	if err != nil {
		t.Fatal(err)
	}
	return newDeferredFixture(t, "contention-week", sc.Result.DB, sc.Symptom, weekWindow, samples)
}

func newDeferredFixture(t testing.TB, name string, db *telemetry.DB, sym telemetry.Symptom, window, samples int) deferredFixture {
	t.Helper()
	g, err := graph.Build(db, []telemetry.EntityID{sym.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TrainWindow = window
	cfg.Samples = samples
	return deferredFixture{name, db, g, cfg, sym}
}

// identicalDiagnosis requires two diagnoses to agree on every field but the
// wall time: candidates, causes (scores, p-values, effects, paths, draws),
// degraded fallbacks and skips. Floats print in their shortest round-trip
// form, so equal text means equal values.
func identicalDiagnosis(t *testing.T, label string, want, got *Diagnosis) {
	t.Helper()
	a, b := *want, *got
	a.Elapsed, b.Elapsed = 0, 0
	if sa, sb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); sa != sb {
		t.Fatalf("%s: diagnoses differ\neager:    %s\ndeferred: %s", label, sa, sb)
	}
	if len(a.Candidates) < 2 {
		t.Fatalf("%s: %d candidates; the comparison covers too little", label, len(a.Candidates))
	}
}

// otherSymptoms picks up to n further symptoms of a diagnosis: the first
// metric of each of its first candidates.
func otherSymptoms(m *Model, d *Diagnosis, n int) []telemetry.Symptom {
	var out []telemetry.Symptom
	for _, c := range d.Candidates {
		if len(out) == n {
			break
		}
		if c == d.Symptom.Entity || len(m.metricsOf[c]) == 0 {
			continue
		}
		out = append(out, telemetry.Symptom{Entity: c, Metric: m.metricsOf[c][0], High: true})
	}
	return out
}

// TestDeferredFitsMatchEager is the differential check of deferred fits: on
// the hotel-regime contention fixture and enterprise incident 2, at one and
// four workers, a deferred model must give the eager model's diagnosis, and
// so must every other reader — several symptoms answered by one model in
// turn (what DiagnoseBatch does), a Rebind copy, WhatIf propagation,
// PredictMetric and FactorView.
func TestDeferredFitsMatchEager(t *testing.T) {
	samples := 1000
	if raceEnabled {
		samples = 200
	}
	gen := enterprise.DefaultGenOptions()
	gen.Apps, gen.Hosts, gen.Steps = 8, 8, 320
	env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []deferredFixture{
		weekFixture(t, samples),
		newDeferredFixture(t, "enterprise-incident-2", env.DB, inc.Symptom, 300, samples),
	}
	ctx := context.Background()
	for _, fx := range fixtures {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", fx.name, workers)
			eager := fx.train(t, workers, true, nil)
			lazy := fx.train(t, workers, false, nil)

			want, err := eager.DiagnoseContext(ctx, fx.sym, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lazy.DiagnoseContext(ctx, fx.sym, workers)
			if err != nil {
				t.Fatal(err)
			}
			identicalDiagnosis(t, label, want, got)

			// Further symptoms on the same model fit only what the first
			// left unfitted.
			for _, sym := range otherSymptoms(eager, want, 2) {
				w, err := eager.DiagnoseContext(ctx, sym, workers)
				if err != nil {
					t.Fatal(err)
				}
				g, err := lazy.DiagnoseContext(ctx, sym, workers)
				if err != nil {
					t.Fatal(err)
				}
				identicalDiagnosis(t, fmt.Sprintf("%s batch symptom %s/%s", label, sym.Entity, sym.Metric), w, g)
			}

			// A Rebind copy of a fresh deferred model fits through the cells
			// it shares with the original.
			fresh := fx.train(t, workers, false, nil)
			at := fresh.Now() - 3
			rbLazy, err := fresh.Rebind(at)
			if err != nil {
				t.Fatal(err)
			}
			rbEager, err := eager.Rebind(at)
			if err != nil {
				t.Fatal(err)
			}
			w, err := rbEager.DiagnoseContext(ctx, fx.sym, workers)
			if err != nil {
				t.Fatal(err)
			}
			g, err := rbLazy.DiagnoseContext(ctx, fx.sym, workers)
			if err != nil {
				t.Fatal(err)
			}
			identicalDiagnosis(t, label+" rebind", w, g)
			g, err = fresh.DiagnoseContext(ctx, fx.sym, workers)
			if err != nil {
				t.Fatal(err)
			}
			identicalDiagnosis(t, label+" original after its rebind copy fitted", want, g)

			// WhatIf: halve the top candidate's metrics.
			src := want.Candidates[0]
			ov := map[telemetry.EntityID]map[string]float64{src: {}}
			for _, name := range eager.metricsOf[src] {
				ov[src][name] = eager.CurrentValue(src, name) / 2
			}
			whatIf := fx.train(t, workers, false, nil)
			pw, okw, errw := eager.PredictUnderIntervention(ov, fx.sym.Entity, fx.sym.Metric, 0)
			pg, okg, errg := whatIf.PredictUnderIntervention(ov, fx.sym.Entity, fx.sym.Metric, 0)
			if errw != nil || errg != nil || okw != okg || math.Float64bits(pw) != math.Float64bits(pg) {
				t.Fatalf("%s: WhatIf eager (%v, %v, %v) vs deferred (%v, %v, %v)", label, pw, okw, errw, pg, okg, errg)
			}

			// Every factor's view and prediction, each fitted on demand.
			views := fx.train(t, workers, false, nil)
			for _, id := range fx.g.IDs() {
				for _, name := range eager.metricsOf[id] {
					vw, _ := eager.FactorView(id, name)
					vg, ok := views.FactorView(id, name)
					if !ok || fmt.Sprintf("%+v", vw) != fmt.Sprintf("%+v", vg) {
						t.Fatalf("%s: FactorView %s/%s eager %+v deferred %+v", label, id, name, vw, vg)
					}
					pw, _ := eager.PredictMetric(id, name)
					pg, ok := lazy.PredictMetric(id, name)
					if !ok || math.Float64bits(pw) != math.Float64bits(pg) {
						t.Fatalf("%s: PredictMetric %s/%s eager %v deferred %v", label, id, name, pw, pg)
					}
				}
			}
		}
	}
}

// TestTrainCombinedMatchesEager holds TrainCombined, which reads every
// factor of both halves, to the same blend built from two eagerly fitted
// models.
func TestTrainCombinedMatchesEager(t *testing.T) {
	db := chainDB(t, 400, 5, 21)
	g := chainGraph(t, db)
	cfg := testConfig()
	ctx := context.Background()
	got, err := TrainCombined(db, g, cfg, 299, 280, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	offCfg := cfg
	offCfg.TrainWindow = 280
	offline, err := TrainOpt(ctx, db, g, offCfg, TrainOpts{Now: 299})
	if err != nil {
		t.Fatal(err)
	}
	online, err := TrainOpt(ctx, db, g, cfg, TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := offline.FitAll(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := online.FitAll(ctx, 1); err != nil {
		t.Fatal(err)
	}
	blended := 0
	for ref, of := range online.factors {
		if !got.factors[ref].cell.done.Load() {
			t.Fatalf("TrainCombined left %s unfitted", ref)
		}
		if off := offline.factors[ref]; sameFeatures(of.cell, off.cell) {
			of.cell = fittedCell(of.cell.features, &combinedPredictor{offline: off.cell.model, online: of.cell.model, wOnline: 0.7})
			blended++
		}
	}
	if blended == 0 {
		t.Fatal("no factor was blended; the comparison covers too little")
	}
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want, err := online.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	d, err := got.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	identicalDiagnosis(t, "TrainCombined", want, d)
}

// TestDiagnosisFitsOnlyPathFactors pins the work of a hotel-regime
// diagnosis: training fits nothing, and the diagnosis fits exactly the
// distinct factors on its candidates' shortest-path subgraphs (every factor
// of every path node but the candidate itself) — fewer than the model has.
// A repeat of the diagnosis fits nothing more.
func TestDiagnosisFitsOnlyPathFactors(t *testing.T) {
	fx := weekFixture(t, 200)
	rec := obs.New()
	rec.Enable()
	m := fx.train(t, 1, false, rec)
	if n := rec.Counter(obs.CtrFactorsTrained); n != 0 {
		t.Fatalf("training fitted %d factors; fits must wait for a reader", n)
	}
	d, err := m.DiagnoseContext(context.Background(), fx.sym, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The subgraphs from an independent cache, not the model's.
	paths := graph.NewSubgraphCache(fx.g)
	onPath := make(map[metricRef]bool)
	for _, c := range d.Candidates {
		path := paths.ShortestPathSubgraph(c, fx.sym.Entity)
		for i, id := range path {
			if i == 0 {
				continue
			}
			for _, name := range fx.db.MetricNames(id) {
				onPath[metricRef{id, name}] = true
			}
		}
	}
	got := rec.Counter(obs.CtrFactorsTrained)
	if got != int64(len(onPath)) {
		t.Fatalf("the diagnosis fitted %d factors; its candidates' paths hold %d", got, len(onPath))
	}
	if len(onPath) == 0 || len(onPath) >= m.NumFactors() {
		t.Fatalf("paths hold %d of %d factors; the fixture shows no saving", len(onPath), m.NumFactors())
	}
	t.Logf("%d candidates; fitted %d of %d factors", len(d.Candidates), got, m.NumFactors())
	if _, err := m.DiagnoseContext(context.Background(), fx.sym, 1); err != nil {
		t.Fatal(err)
	}
	if again := rec.Counter(obs.CtrFactorsTrained); again != got {
		t.Fatalf("a repeated diagnosis fitted %d more factors", again-got)
	}
}

// TestConcurrentDiagnosesShareFitCells runs four diagnoses of different
// symptoms at once on one deferred model, each on a four-worker pool, so
// their pre-fit pools race for the cells their paths share. Every result
// must be bit-identical to a serial diagnosis on a fresh model.
func TestConcurrentDiagnosesShareFitCells(t *testing.T) {
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		t.Fatal(err)
	}
	fx := newDeferredFixture(t, "contention", sc.Result.DB, sc.Symptom, 280, 300)
	first, err := fx.train(t, 1, false, nil).Diagnose(fx.sym)
	if err != nil {
		t.Fatal(err)
	}
	probe := fx.train(t, 1, false, nil)
	syms := append([]telemetry.Symptom{fx.sym}, otherSymptoms(probe, first, 3)...)
	if len(syms) != 4 {
		t.Fatalf("only %d symptoms", len(syms))
	}
	// The four path sets must overlap, or nothing is shared.
	sum, union := 0, make(map[metricRef]bool)
	for _, sym := range syms {
		cands := append(probe.Candidates(sym.Entity), sym.Entity)
		paths := make([][]telemetry.EntityID, len(cands))
		for i, c := range cands {
			paths[i] = probe.paths.ShortestPathSubgraph(c, sym.Entity)
		}
		refs := probe.pathRefs(paths)
		sum += len(refs)
		for _, r := range refs {
			union[r] = true
		}
	}
	if sum <= len(union) {
		t.Fatalf("the symptoms' path factors do not overlap (%d in all, %d distinct)", sum, len(union))
	}

	want := make([]*Diagnosis, len(syms))
	for i, sym := range syms {
		if want[i], err = fx.train(t, 1, false, nil).Diagnose(sym); err != nil {
			t.Fatal(err)
		}
	}
	shared := fx.train(t, 4, false, nil)
	got := make([]*Diagnosis, len(syms))
	errs := make([]error, len(syms))
	var start, wg sync.WaitGroup
	start.Add(1)
	for i, sym := range syms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = shared.DiagnoseContext(context.Background(), sym, 4)
		}()
	}
	start.Done()
	wg.Wait()
	for i, sym := range syms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		identicalDiagnosis(t, fmt.Sprintf("concurrent %s/%s", sym.Entity, sym.Metric), want[i], got[i])
	}
}
