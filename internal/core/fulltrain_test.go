package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// weekWindow is one week of 5-minute slices: the training window of a full
// retrain in the hotel-triage regime.
const weekWindow = 2016

// weekScenario builds the contention scenario with enough history for a
// week-long training window.
func weekScenario(t testing.TB) (*telemetry.DB, *graph.Graph, Config) {
	t.Helper()
	fx := weekFixture(t, DefaultConfig().Samples)
	return fx.db, fx.g, fx.cfg
}

// TestFullTrainRobustStatsMatchSortedWindow cross-checks the selection-based
// robust statistics of a full retrain against the independent path the
// incremental trainer uses: for every series with no missing slice, the
// factor's median and MAD scale must equal the sorted window's, bit for bit.
func TestFullTrainRobustStatsMatchSortedWindow(t *testing.T) {
	db, g, cfg := weekScenario(t)
	for _, workers := range []int{1, 2} {
		m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		clean := 0
		for ref, f := range m.factors {
			raw := db.RawWindow(ref.entity, ref.metric, m.trainLo, m.trainHi)
			if hasMissing(raw) {
				continue
			}
			clean++
			sw := stats.NewSortedWindow(raw)
			med, scale := sw.Median(), 1.4826*sw.MAD()
			if math.Float64bits(f.med) != math.Float64bits(med) || math.Float64bits(f.madScale) != math.Float64bits(scale) {
				t.Errorf("workers=%d %s: (med, madScale) = (%v, %v), sorted window (%v, %v)",
					workers, ref, f.med, f.madScale, med, scale)
			}
		}
		if clean == 0 || clean < len(m.factors)/2 {
			t.Fatalf("workers=%d: only %d of %d series are clean; the cross-check covers too little", workers, clean, len(m.factors))
		}
	}
}

// TestFullTrainAllocBudget pins the allocation of a week-long full retrain
// with every factor fitted (TrainOpt then FitAll), so the per-factor garbage
// the selection pass and the pooled ridge design removed cannot creep back.
// The budget is 3× the bytes of the training windows themselves: one raw
// copy per series is 1×; everything else — the selection scratch, the
// standardized design columns, maps, candidate lists and fitted models —
// must fit in the other two.
func TestFullTrainAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts on purpose; the budget is checked without -race")
	}
	db, g, cfg := weekScenario(t)
	ctx := context.Background()
	train := func() *Model {
		m, err := TrainOpt(ctx, db, g, cfg, TrainOpts{Now: -1})
		if err == nil {
			err = m.FitAll(ctx, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := train() // warm the pools
	series := 0
	for _, names := range m.metricsOf {
		series += len(names)
	}
	windowBytes := uint64(series * weekWindow * 8)

	const trains = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < trains; i++ {
		train()
	}
	runtime.ReadMemStats(&after)
	perTrain := (after.TotalAlloc - before.TotalAlloc) / trains
	msg := fmt.Sprintf("full retrain at window %d allocates %.2f MB (%.2f× the %.2f MB of %d training windows)",
		weekWindow, float64(perTrain)/1e6, float64(perTrain)/float64(windowBytes), float64(windowBytes)/1e6, series)
	if perTrain > 3*windowBytes {
		t.Fatal(msg + "; budget 3×")
	}
	t.Log(msg)
}

// dropObservations rebuilds a chainDB database without the observations drop
// selects, which read back as missing (NaN).
func dropObservations(t *testing.T, db *telemetry.DB, drop func(id telemetry.EntityID, name string, tt int) bool) *telemetry.DB {
	t.Helper()
	ids := []telemetry.EntityID{"client", "flow", "front", "back", "decoy"}
	out := telemetry.NewDB(600)
	for _, id := range ids {
		e := db.Entity(id)
		if e == nil {
			t.Fatalf("missing entity %s", id)
		}
		if err := out.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{
		{"client", "flow"}, {"flow", "front"}, {"front", "back"}, {"decoy", "back"},
	} {
		if err := out.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		for _, name := range db.MetricNames(id) {
			for tt, v := range db.RawWindow(id, name, 0, db.Len()) {
				if v == v && !drop(id, name, tt) {
					if err := out.Observe(id, name, tt, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return out
}

// TestRobustStatsWithMissingHistory checks the missing-history rules of the
// robust statistics against the sorted-window reference, for the full
// retrain and the incremental trainer alike. A series with enough observed
// history is judged on its observed values only. A novel one (less than a
// quarter of the window observed) is judged on its placeholder-filled
// window, whose placeholder is the observed median, or 0 when nothing in
// the window was observed.
func TestRobustStatsWithMissingHistory(t *testing.T) {
	db := dropObservations(t, chainDB(t, 340, 5, 42), func(id telemetry.EntityID, _ string, tt int) bool {
		switch id {
		case "front":
			return tt < 330 // 10 of 200 window slices observed: novel
		case "back":
			return tt >= 300 && tt < 310 // a gap: dirty, not novel
		case "decoy":
			return tt >= 100 // nothing observed inside the window
		}
		return false
	})
	g := chainGraph(t, db)
	cfg := testConfig()
	lo, hi := db.Len()-cfg.TrainWindow, db.Len()
	wantNovel := map[telemetry.EntityID]bool{"front": true, "decoy": true}
	models := map[string]*Model{
		"full":        trainFull(t, db, g, cfg, -1),
		"incremental": trainInc(t, db, g, cfg, db.Len()-1, NewFactorStore()),
	}
	for label, m := range models {
		for _, id := range g.IDs() {
			for _, name := range db.MetricNames(id) {
				raw := db.RawWindow(id, name, lo, hi)
				var observed []float64
				for _, v := range raw {
					if v == v {
						observed = append(observed, v)
					}
				}
				ref := stats.NewSortedWindow(observed)
				novel := len(observed) < len(raw)/4
				if novel {
					fill := 0.0
					if len(observed) > 0 {
						fill = ref.Median()
					}
					filled := append([]float64(nil), raw...)
					for i, v := range filled {
						if v != v {
							filled[i] = fill
						}
					}
					ref = stats.NewSortedWindow(filled)
				}
				v, ok := m.FactorView(id, name)
				if !ok {
					t.Fatalf("%s: no factor for %s/%s", label, id, name)
				}
				if novel != wantNovel[id] || v.Novel != novel {
					t.Errorf("%s %s/%s: novel = %v, want %v", label, id, name, v.Novel, wantNovel[id])
				}
				med, scale := ref.Median(), 1.4826*ref.MAD()
				if math.Float64bits(v.Med) != math.Float64bits(med) || math.Float64bits(v.MADScale) != math.Float64bits(scale) {
					t.Errorf("%s %s/%s: (med, madScale) = (%v, %v), sorted-window reference (%v, %v)",
						label, id, name, v.Med, v.MADScale, med, scale)
				}
			}
		}
	}
}
