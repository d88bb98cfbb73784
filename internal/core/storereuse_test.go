package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// storeBaseline trains the chain fixture without a store and diagnoses the
// standard symptom: the reference every store-served diagnosis must match
// bit for bit.
func storeBaseline(t *testing.T, db *telemetry.DB, cfg Config, sym telemetry.Symptom) *Diagnosis {
	t.Helper()
	plain, err := TrainOpt(context.Background(), db, chainGraph(t, db), cfg, TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkStoreRepeat retrains through one fresh factor store twice at the same
// window on the given number of training workers and checks (a) the second
// training is served entirely from the stored factors and (b) those factors
// produce diagnoses bit-identical to the storeless baseline.
func checkStoreRepeat(t *testing.T, workers int) {
	t.Helper()
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := storeBaseline(t, db, cfg, sym)

	store := NewFactorStore()
	for round := 0; round < 2; round++ {
		m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		diag, err := m.Diagnose(sym)
		if err != nil {
			t.Fatal(err)
		}
		sameDiagnosis(t, fmt.Sprintf("workers=%d round %d", workers, round), want, diag)
	}
	st := store.Stats()
	if st.Refits == 0 || st.Hits != st.Refits || st.Factors != int(st.Refits) {
		t.Errorf("workers=%d: second training should hit every factor: %+v", workers, st)
	}
}

// TestFactorCacheIdenticalResults retrains serially through one factor store
// at the same window: the second pass is all hits and diagnoses stay
// bit-identical. The pooled variant is TestParallelTrainingWithFactorCache.
func TestFactorCacheIdenticalResults(t *testing.T) {
	checkStoreRepeat(t, 1)
}

// TestStoreSharedConcurrent hammers one store from many goroutines, each
// training its own model at the same window and diagnosing with four
// workers — the triage pattern of several symptoms of one incident. Meant
// to run under -race; every diagnosis must equal the storeless baseline.
func TestStoreSharedConcurrent(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := storeBaseline(t, db, cfg, sym)

	store := NewFactorStore()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	diags := make([]*Diagnosis, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store})
			if err != nil {
				errs <- err
				return
			}
			diag, err := m.DiagnoseContext(context.Background(), sym, 4)
			if err != nil {
				errs <- err
				return
			}
			diags[slot] = diag
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, diag := range diags {
		sameDiagnosis(t, "concurrent trainer", want, diag)
	}
	st := store.Stats()
	if st.Hits != (goroutines-1)*st.Refits || st.Resets != 0 {
		t.Errorf("one anchor then pure hits expected: %+v", st)
	}
}

// TestStoreBypassed checks the soundness guards: a custom trainer or an
// interposed source must leave the store untouched (their factors are not
// reusable, and a fallible read path must not poison shared state).
func TestStoreBypassed(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	store := NewFactorStore()
	untouched := NewFactorStore().Stats()

	if _, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Trainer: regress.MLPTrainer(3, 1)}); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st != untouched {
		t.Fatalf("custom trainer touched the store: %+v", st)
	}
	if _, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store, Src: db}); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st != untouched {
		t.Fatalf("interposed source touched the store: %+v", st)
	}
}

// TestStoreDegradedPaths exercises the store together with the resilience
// machinery: a panicking candidate evaluator (skip path) and an expiring
// deadline (partial path) must not corrupt stored factors — a clean
// retrain+diagnose afterwards still matches the baseline exactly.
func TestStoreDegradedPaths(t *testing.T) {
	db := chainDB(t, 220, 5, 42)
	g := chainGraph(t, db)
	cfg := testConfig()
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	want := storeBaseline(t, db, cfg, sym)
	store := NewFactorStore()

	// Skip path: one candidate's evaluation panics mid-diagnosis.
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	m.SetEvalHook(func(a telemetry.EntityID) {
		if a == "decoy" {
			panic("poisoned evaluator")
		}
	})
	diag, err := m.DiagnoseContext(context.Background(), sym, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Partial {
		t.Fatal("panicking candidate should mark the diagnosis partial")
	}

	// Partial path: the deadline expires during inference.
	m2, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	m2.SetEvalHook(func(telemetry.EntityID) { time.Sleep(5 * time.Millisecond) })
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Millisecond)
	defer cancel()
	if _, err := m2.DiagnoseContext(ctx, sym, 4); err != nil {
		t.Fatalf("an expiring deadline should degrade, not error: %v", err)
	}

	// The store must still serve pristine factors.
	m3, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := m3.DiagnoseContext(context.Background(), sym, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameDiagnosis(t, "after degraded runs", want, clean)
}
