package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"murphy/internal/graph"
	"murphy/internal/obs"
	"murphy/internal/telemetry"
)

// TestDiagnosePanickingCandidate is the regression test for the worker-pool
// deadlock: a panicking candidate evaluation used to kill the worker
// goroutine before wg.Done, hanging every parallel diagnosis. The
// panic must instead become a recorded skip while the rest of the diagnosis
// completes.
func TestDiagnosePanickingCandidate(t *testing.T) {
	for _, mode := range []string{"sequential", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			_, m := trainChain(t)
			m.SetEvalHook(func(a telemetry.EntityID) {
				if a == "decoy" {
					panic("poisoned evaluator")
				}
			})
			sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}

			done := make(chan struct{})
			var diag *Diagnosis
			var err error
			go func() {
				defer close(done)
				if mode == "parallel" {
					diag, err = m.DiagnoseContext(context.Background(), sym, 4)
				} else {
					diag, err = m.Diagnose(sym)
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("diagnosis deadlocked on a panicking candidate")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !diag.Partial {
				t.Fatal("a panicking candidate should mark the diagnosis partial")
			}
			var skip *SkippedCandidate
			for i := range diag.Skipped {
				if diag.Skipped[i].Entity == "decoy" {
					skip = &diag.Skipped[i]
				}
			}
			if skip == nil {
				t.Fatalf("decoy should be recorded as skipped: %+v", diag.Skipped)
			}
			if !strings.Contains(skip.Reason, "panic") {
				t.Fatalf("skip reason = %q, want a panic marker", skip.Reason)
			}
			// The true cause still comes out of the surviving candidates.
			found := false
			for _, c := range diag.Causes {
				if c.Entity == "client" {
					found = true
				}
				if c.Degraded {
					t.Fatal("certified cause list must not contain degraded entries")
				}
			}
			if !found {
				t.Fatalf("client should survive the poisoned decoy: %v", diag.Ranked())
			}
			// The decoy falls back to the degraded ranking, flagged.
			if len(diag.Degraded) != 1 || diag.Degraded[0].Entity != "decoy" || !diag.Degraded[0].Degraded {
				t.Fatalf("degraded = %+v", diag.Degraded)
			}
		})
	}
}

func TestDiagnoseContextCancelled(t *testing.T) {
	_, m := trainChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	diag, err := m.DiagnoseContext(ctx, telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled diagnosis did not return promptly")
	}
	if diag == nil || !diag.Partial {
		t.Fatal("cancellation should still hand back the partial diagnosis")
	}
	// Parallel path: same contract.
	if _, err := m.DiagnoseContext(ctx, telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want wrapped context.Canceled", err)
	}
}

func TestDiagnoseContextDeadlinePartial(t *testing.T) {
	db := chainDB(t, 220, 5, 33)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy sampling so full inference takes visibly longer than the
	// deadline; the ctx checks inside the Gibbs loop must cut it short.
	cfg := testConfig()
	cfg.Samples = 60000
	cfg.GibbsRounds = 8
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	deadline := 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	diag, err := m.DiagnoseContext(ctx, sym, 1)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("an expired deadline must degrade, not error: %v", err)
	}
	if diag == nil {
		t.Fatal("nil diagnosis")
	}
	if !diag.Partial || len(diag.Skipped) == 0 {
		t.Fatalf("deadline should leave a partial diagnosis: partial=%v skipped=%d evaluated causes=%d",
			diag.Partial, len(diag.Skipped), len(diag.Causes))
	}
	for _, s := range diag.Skipped {
		if s.Reason != "deadline exceeded" {
			t.Fatalf("skip reason = %q", s.Reason)
		}
	}
	// Generous CI margin, but far below the multi-second full inference:
	// the acceptance target is ~1.5x the deadline.
	if elapsed > time.Second {
		t.Fatalf("deadline %v overshot to %v", deadline, elapsed)
	}
	// Degraded fallback is ranked by anomaly score (descending).
	for i := 1; i < len(diag.Degraded); i++ {
		if diag.Degraded[i-1].Score < diag.Degraded[i].Score {
			t.Fatal("degraded list must be ranked by anomaly score")
		}
	}
}

func TestTrainOptCancelled(t *testing.T) {
	db := chainDB(t, 220, 5, 34)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainOpt(ctx, db, g, testConfig(), TrainOpts{Now: -1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// brokenSource fails every read of one entity and passes the rest through.
type brokenSource struct {
	db     *telemetry.DB
	broken telemetry.EntityID
}

func (b *brokenSource) Len() int                                   { return b.db.Len() }
func (b *brokenSource) Entities() []telemetry.EntityID             { return b.db.Entities() }
func (b *brokenSource) MetricNames(id telemetry.EntityID) []string { return b.db.MetricNames(id) }
func (b *brokenSource) ReadRawWindow(ctx context.Context, id telemetry.EntityID, metric string, lo, hi int) ([]float64, error) {
	if id == b.broken {
		return nil, fmt.Errorf("collector shard down for %s", id)
	}
	return b.db.ReadRawWindow(ctx, id, metric, lo, hi)
}

func TestTrainOptSrcDegradesFailedReads(t *testing.T) {
	db := chainDB(t, 220, 5, 35)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	src := &brokenSource{db: db, broken: "decoy"}
	m, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Src: src})
	if err != nil {
		t.Fatalf("unreadable series must degrade, not fail training: %v", err)
	}
	fails := m.ReadFailures()
	if len(fails) == 0 {
		t.Fatal("read failures should be recorded")
	}
	for _, f := range fails {
		if f.Entity != "decoy" {
			t.Fatalf("unexpected failure %+v", f)
		}
	}
	// The diagnosis still runs and still finds the true cause: the decoy's
	// missing history makes it "novel", not fatal.
	diag, err := m.Diagnose(telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range diag.Causes {
		if c.Entity == "client" {
			found = true
		}
	}
	if !found {
		t.Fatalf("client should survive a dead collector shard: %v", diag.Ranked())
	}
}

func TestTrainOptSrcMatchesDirectTraining(t *testing.T) {
	db := chainDB(t, 220, 5, 36)
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	viaSrc, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1, Src: db})
	if err != nil {
		t.Fatal(err)
	}
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	a, err := direct.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaSrc.Diagnose(sym)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Causes) != len(b.Causes) {
		t.Fatalf("cause counts differ: %d vs %d", len(a.Causes), len(b.Causes))
	}
	for i := range a.Causes {
		if a.Causes[i].Entity != b.Causes[i].Entity || a.Causes[i].PValue != b.Causes[i].PValue {
			t.Fatalf("rank %d differs: %+v vs %+v", i, a.Causes[i], b.Causes[i])
		}
	}
}

func TestParallelPartialMatchesSequentialCertified(t *testing.T) {
	// With a panicking candidate, the certified causes of the parallel and
	// sequential paths must still agree (determinism under degradation).
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	run := func(parallel bool) *Diagnosis {
		_, m := trainChain(t)
		m.SetEvalHook(func(a telemetry.EntityID) {
			if a == "front" {
				panic("poisoned")
			}
		})
		var d *Diagnosis
		var err error
		if parallel {
			d, err = m.DiagnoseContext(context.Background(), sym, 4)
		} else {
			d, err = m.Diagnose(sym)
		}
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq, par := run(false), run(true)
	if len(seq.Causes) != len(par.Causes) {
		t.Fatalf("certified counts differ: %d vs %d", len(seq.Causes), len(par.Causes))
	}
	for i := range seq.Causes {
		if seq.Causes[i].Entity != par.Causes[i].Entity {
			t.Fatalf("rank %d differs: %v vs %v", i, seq.Ranked(), par.Ranked())
		}
	}
	if len(seq.Skipped) != 1 || len(par.Skipped) != 1 {
		t.Fatalf("skips: seq=%v par=%v", seq.Skipped, par.Skipped)
	}
}

// progressLog records the StageTest progress stream of one diagnosis.
type progressLog struct {
	done, total []int
}

func (p *progressLog) StageStart(obs.Stage)                             {}
func (p *progressLog) StageEnd(obs.Stage, time.Duration, time.Duration) {}
func (p *progressLog) Progress(st obs.Stage, done, total int, _ string) {
	if st == obs.StageTest {
		p.done = append(p.done, done)
		p.total = append(p.total, total)
	}
}

// TestDiagnoseProgressPerCandidate: the diagnosis loop reports one progress
// event per candidate, skipped ones included, so the stream reaches total
// even when the deadline has expired — and inline and pooled runs agree on
// both the events and the Diagnosis.
func TestDiagnoseProgressPerCandidate(t *testing.T) {
	_, m := trainChain(t)
	sym := telemetry.Symptom{Entity: "back", Metric: telemetry.MetricCPU, High: true}
	run := func(workers int) (*Diagnosis, *progressLog) {
		log := &progressLog{}
		rec := obs.New()
		rec.Enable()
		rec.Attach(log)
		m.SetRecorder(rec)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		d, err := m.DiagnoseContext(ctx, sym, workers)
		if err != nil {
			t.Fatalf("workers=%d: an expired deadline must degrade, not error: %v", workers, err)
		}
		return d, log
	}
	inline, inLog := run(1)
	pooled, poolLog := run(4)
	n := len(inline.Candidates)
	for _, c := range []struct {
		label string
		d     *Diagnosis
		log   *progressLog
	}{{"inline", inline, inLog}, {"pooled", pooled, poolLog}} {
		if !c.d.Partial || len(c.d.Skipped) != n {
			t.Fatalf("%s: every candidate should be skipped: %+v", c.label, c.d.Skipped)
		}
		if len(c.log.done) != n {
			t.Fatalf("%s: %d progress events for %d candidates", c.label, len(c.log.done), n)
		}
		for i := range c.log.done {
			if c.log.done[i] != i+1 || c.log.total[i] != n {
				t.Fatalf("%s: event %d reports %d/%d, want %d/%d", c.label, i, c.log.done[i], c.log.total[i], i+1, n)
			}
		}
	}
	sameDiagnosis(t, "inline vs pooled", inline, pooled)
	if fmt.Sprint(inline.Candidates) != fmt.Sprint(pooled.Candidates) || fmt.Sprint(inline.Skipped) != fmt.Sprint(pooled.Skipped) {
		t.Fatalf("skips differ: %v vs %v", inline.Skipped, pooled.Skipped)
	}
	if len(inline.Degraded) != len(pooled.Degraded) {
		t.Fatalf("degraded counts differ: %d vs %d", len(inline.Degraded), len(pooled.Degraded))
	}
	for i := range inline.Degraded {
		a, b := inline.Degraded[i], pooled.Degraded[i]
		if a.Entity != b.Entity || a.Score != b.Score || a.Reason != b.Reason {
			t.Fatalf("degraded rank %d differs: %+v vs %+v", i, a, b)
		}
	}
}
