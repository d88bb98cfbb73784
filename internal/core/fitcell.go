package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// A full retrain defers each factor's feature ranking and ridge fit until
// something reads the factor. §4.2 tests a candidate by resampling only the
// shortest-path subgraph from it to the symptom, so a diagnosis reads the
// factors on its candidates' paths — typically well under the whole graph —
// and the rest are never fitted. A fitted factor is the same bits whenever
// and wherever its fit runs: the fit is a pure function of the training
// columns, which the model keeps.

// fitCell is one factor's learned regression: its selected features and
// trained model, fitted at most once, on first demand. Every reader goes
// through factor.fitted. A cell is safe for concurrent use; concurrent
// demands wait for one fit.
type fitCell struct {
	done atomic.Bool
	mu   sync.Mutex
	// job is the pending fit; nil once the fit ran (or for a cell built
	// fitted).
	job *fitJob

	// Valid once done is set.
	features []metricRef
	model    regress.Predictor
	err      error
}

// fittedCell returns a cell that holds an already trained regression (the
// factor store's factors, a blended TrainCombined factor).
func fittedCell(features []metricRef, model regress.Predictor) *fitCell {
	c := &fitCell{features: features, model: model}
	c.done.Store(true)
	return c
}

// fitted returns the factor's fit cell, fitting it first if nothing has
// yet. The error is the fit's, and is returned to every later reader too.
func (f *factor) fitted() (*fitCell, error) {
	return f.cell, f.cell.fit(false)
}

// fit runs the pending fit unless it already ran. pooled only marks the
// fit on the parallel-fits counter. A fit that panics leaves the cell
// unfitted (the panic propagates), so a later demand retries it instead of
// reading a half-built model.
func (c *fitCell) fit(pooled bool) error {
	if !c.done.Load() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.done.Load() {
			c.features, c.model, c.err = c.job.run(pooled)
			c.job = nil
			c.done.Store(true)
		}
	}
	return c.err
}

// fitSource is what the deferred fits of one full retrain read: every
// series' training column with its moments (the model's only copy of the
// window), the trainer, and the ranking width. Shared by all cells of a
// model and of its Rebind copies.
type fitSource struct {
	series  map[metricRef]*stats.Centered
	trainer regress.Trainer
	topB    int
	rec     *obs.Recorder
}

// fitJob is one factor's pending fit: its target and the candidate features
// (the metrics of the target entity's in-neighbours), shared with the other
// factors of the entity.
type fitJob struct {
	src      *fitSource
	ref      metricRef
	cand     []metricRef
	candKeys []string // cand[i].String(), precomputed
	candCtr  []*stats.Centered
}

// run ranks the candidates by |corr| with the target and fits the trainer's
// model on the top B (one-in-ten rule, §4.2).
func (j *fitJob) run(pooled bool) ([]metricRef, regress.Predictor, error) {
	src := j.src
	y := src.series[j.ref]
	rs := make([]float64, len(j.cand))
	order := make([]int, len(j.cand))
	for i := range j.cand {
		rs[i] = stats.AbsPearsonCentered(j.candCtr[i], y)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if rs[ia] != rs[ib] {
			return rs[ia] > rs[ib]
		}
		return j.candKeys[ia] < j.candKeys[ib]
	})
	b := min(src.topB, len(order))
	feats := make([]metricRef, 0, b)
	featCtr := make([]*stats.Centered, 0, b)
	for _, i := range order[:b] {
		if rs[i] > 0 {
			feats = append(feats, j.cand[i])
			featCtr = append(featCtr, j.candCtr[i])
		}
	}
	model := src.trainer()
	// The training windows already are the design matrix's columns, with
	// their moments: a trainer with the centered fast path (the default
	// ridge) consumes them directly; others get the row-major assembly.
	var err error
	if cf, ok := model.(regress.CenteredFitter); ok {
		err = cf.FitCentered(featCtr, y)
	} else {
		n := len(y.Src)
		x := make([][]float64, n)
		for t := range x {
			row := make([]float64, len(feats))
			for k, c := range featCtr {
				row[k] = c.Src[t]
			}
			x[t] = row
		}
		err = model.Fit(x, y.Src)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: fit factor %s: %w", j.ref, err)
	}
	src.rec.Add(obs.CtrFactorsTrained, 1)
	if pooled {
		src.rec.Add(obs.CtrTrainParallelFits, 1)
	}
	return feats, model, nil
}

// fitRefs fits the named factors (those the model has) over up to `workers`
// goroutines. Each fit lands in its own cell, so the result is the same at
// every pool size. The pool checks the context before every fit and returns
// its error; a fit it did not start stays pending, never failed. Otherwise
// the error is the lowest-index fit's.
func (m *Model) fitRefs(ctx context.Context, workers int, refs []metricRef) error {
	pooled := workers > 1 && len(refs) > 1
	return forEachIndex(ctx, workers, len(refs), func(i int) error {
		if f := m.factors[refs[i]]; f != nil {
			return f.cell.fit(pooled)
		}
		return nil
	})
}

// pathRefs lists, once each and in path order, the factors a diagnosis's
// candidate tests read: those of every non-candidate node on each
// candidate's shortest-path subgraph (path[1:]; nil paths read nothing).
func (m *Model) pathRefs(paths [][]telemetry.EntityID) []metricRef {
	seen := make(map[telemetry.EntityID]bool)
	var refs []metricRef
	for _, path := range paths {
		for _, id := range path[min(1, len(path)):] {
			if seen[id] {
				continue
			}
			seen[id] = true
			for _, name := range m.metricsOf[id] {
				refs = append(refs, metricRef{id, name})
			}
		}
	}
	return refs
}

// FitAll fits every factor not yet fitted, in graph order, over up to
// `workers` goroutines. It is the eager form of a full retrain — for
// callers that read every factor (TrainCombined) and for benchmarks and
// tests that time or compare complete models. Its error is the first
// failing fit's, or the context's as "core: training cancelled".
func (m *Model) FitAll(ctx context.Context, workers int) error {
	var refs []metricRef
	for _, id := range m.g.IDs() {
		for _, name := range m.metricsOf[id] {
			refs = append(refs, metricRef{id, name})
		}
	}
	if err := m.fitRefs(ctx, workers, refs); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("core: training cancelled: %w", err)
		}
		return err
	}
	return nil
}
