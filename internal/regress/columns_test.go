package regress

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"murphy/internal/stats"
)

// fitPair trains one Ridge via row-major Fit and one via FitColumns on the
// same data and returns both.
func fitPair(t *testing.T, lambda float64, cols [][]float64, y []float64) (*Ridge, *Ridge) {
	t.Helper()
	n := len(y)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		rows[i] = row
	}
	byRows := NewRidge(lambda)
	if err := byRows.Fit(rows, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	byCols := NewRidge(lambda)
	if err := byCols.FitColumns(cols, y); err != nil {
		t.Fatalf("FitColumns: %v", err)
	}
	return byRows, byCols
}

// assertSameRidge requires the two fits to be bit-identical: coefficients,
// residual std, and predictions on probe vectors.
func assertSameRidge(t *testing.T, label string, a, b *Ridge, probes [][]float64) {
	t.Helper()
	ca, cb := a.Coefficients(), b.Coefficients()
	if len(ca) != len(cb) {
		t.Fatalf("%s: %d coefficients vs %d", label, len(ca), len(cb))
	}
	for j := range ca {
		if math.Float64bits(ca[j]) != math.Float64bits(cb[j]) {
			t.Fatalf("%s: coef[%d] %v != %v", label, j, cb[j], ca[j])
		}
	}
	if math.Float64bits(a.ResidualStd()) != math.Float64bits(b.ResidualStd()) {
		t.Fatalf("%s: resid %v != %v", label, b.ResidualStd(), a.ResidualStd())
	}
	for _, p := range probes {
		if math.Float64bits(a.Predict(p)) != math.Float64bits(b.Predict(p)) {
			t.Fatalf("%s: Predict(%v) %v != %v", label, p, b.Predict(p), a.Predict(p))
		}
	}
}

// TestFitColumnsBitIdentical is the equivalence the parallel trainer depends
// on: fitting from telemetry columns must reproduce the row-major fit exactly,
// across sizes, penalties and feature counts.
func TestFitColumnsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 10, 255, 256, 257, 400} {
		for _, p := range []int{1, 3, 10} {
			for _, lambda := range []float64{0, 1, 1e-8} {
				cols := make([][]float64, p)
				for j := range cols {
					cols[j] = make([]float64, n)
					for i := range cols[j] {
						cols[j][i] = rng.NormFloat64() * float64(1+j)
					}
				}
				y := make([]float64, n)
				for i := range y {
					y[i] = rng.NormFloat64()
					for j := range cols {
						y[i] += 0.5 * cols[j][i]
					}
				}
				probes := [][]float64{make([]float64, p), cols0Row(cols, 0)}
				a, b := fitPair(t, lambda, cols, y)
				assertSameRidge(t, "random", a, b, probes)
			}
		}
	}
}

// cols0Row assembles row i of a column-major design matrix.
func cols0Row(cols [][]float64, i int) []float64 {
	row := make([]float64, len(cols))
	for j := range cols {
		row[j] = cols[j][i]
	}
	return row
}

// TestFitColumnsZeroVariance pins the degenerate paths: a constant feature
// (std forced to 1) and a zero-feature fit (intercept-only model).
func TestFitColumnsZeroVariance(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5, 6}
	constant := []float64{7, 7, 7, 7, 7, 7}
	varying := []float64{1, 2, 1, 2, 1, 2}
	a, b := fitPair(t, 1, [][]float64{constant, varying}, y)
	assertSameRidge(t, "constant-col", a, b, [][]float64{{7, 1}, {0, 0}})

	// Empty feature set: both paths fall back to the intercept-only model.
	byRows := NewRidge(1)
	if err := byRows.Fit([][]float64{{}, {}, {}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	byCols := NewRidge(1)
	if err := byCols.FitColumns(nil, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	assertSameRidge(t, "intercept-only", byRows, byCols, [][]float64{nil, {5}})
}

// TestFitColumnsErrors pins the validation: empty targets and ragged columns
// are rejected.
func TestFitColumnsErrors(t *testing.T) {
	r := NewRidge(1)
	if err := r.FitColumns(nil, nil); err == nil {
		t.Error("empty target accepted")
	}
	if err := r.FitColumns([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged columns accepted")
	}
}

// ridgeBitsDiffer describes the first bit difference between two fitted
// ridges (coefficients, intercept, residual std), or returns "".
func ridgeBitsDiffer(a, b *Ridge) string {
	if len(a.coef) != len(b.coef) {
		return fmt.Sprintf("%d coefficients vs %d", len(b.coef), len(a.coef))
	}
	for j := range a.coef {
		if math.Float64bits(a.coef[j]) != math.Float64bits(b.coef[j]) {
			return fmt.Sprintf("coef[%d] %v != %v", j, b.coef[j], a.coef[j])
		}
	}
	if math.Float64bits(a.intercept) != math.Float64bits(b.intercept) {
		return fmt.Sprintf("intercept %v != %v", b.intercept, a.intercept)
	}
	if math.Float64bits(a.resid) != math.Float64bits(b.resid) {
		return fmt.Sprintf("resid %v != %v", b.resid, a.resid)
	}
	return ""
}

// TestFitColumnsConcurrentShapes runs FitColumns from 8 goroutines at once,
// each on its own design shape, so the pooled design slabs are handed
// between fits of different sizes. Every fit must match Fit on the
// assembled rows bit for bit; run under -race it also checks that no two
// fits share a slab.
func TestFitColumnsConcurrentShapes(t *testing.T) {
	type task struct {
		cols [][]float64
		y    []float64
		want *Ridge
	}
	rng := rand.New(rand.NewSource(17))
	shapes := [][2]int{{2016, 10}, {280, 3}, {17, 1}, {2016, 4}, {500, 7}, {64, 10}, {1000, 2}, {300, 5}}
	tasks := make([]task, len(shapes))
	for k, sh := range shapes {
		n, p := sh[0], sh[1]
		cols := make([][]float64, p)
		for j := range cols {
			cols[j] = make([]float64, n)
			for i := range cols[j] {
				cols[j][i] = rng.NormFloat64() * float64(1+j)
			}
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() + 0.3*cols[0][i]
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = cols0Row(cols, i)
		}
		want := NewRidge(1)
		if err := want.Fit(rows, y); err != nil {
			t.Fatal(err)
		}
		tasks[k] = task{cols, y, want}
	}
	errs := make([]string, len(tasks))
	var wg sync.WaitGroup
	for k := range tasks {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tk := tasks[k]
			for rep := 0; rep < 20; rep++ {
				got := NewRidge(1)
				if err := got.FitColumns(tk.cols, tk.y); err != nil {
					errs[k] = err.Error()
					return
				}
				if d := ridgeBitsDiffer(tk.want, got); d != "" {
					errs[k] = fmt.Sprintf("rep %d: %s", rep, d)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for k, e := range errs {
		if e != "" {
			t.Errorf("shape %v: %s", shapes[k], e)
		}
	}
}

// TestFitCenteredMatchesMeanStd holds FitCentered, which takes each
// feature's mean and std from the caller's stats.Centered views, to Fit,
// which derives them with a MeanStd pass per feature: coefficients,
// standardization, intercept and residual std must agree bit for bit, or
// both fits must fail alike. Shapes are random, and columns are randomly
// constant, NaN-holding, or constant but for one NaN.
func TestFitCenteredMatchesMeanStd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := [4]int{}
	failed := 0
	for trial := 0; trial < 400; trial++ {
		n, p := 1+rng.Intn(300), rng.Intn(8)
		cols := make([][]float64, p)
		for j := range cols {
			kind := rng.Intn(4)
			kinds[kind]++
			c := make([]float64, n)
			for i := range c {
				c[i] = rng.NormFloat64()*float64(1+j) + 50
			}
			switch kind {
			case 1: // constant
				for i := range c {
					c[i] = 7.25
				}
			case 2: // a NaN somewhere
				c[rng.Intn(n)] = math.NaN()
			case 3: // constant but for a NaN
				for i := range c {
					c[i] = -3
				}
				c[rng.Intn(n)] = math.NaN()
			}
			cols[j] = c
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
			if p > 0 {
				y[i] += 0.4 * cols[0][i]
			}
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = cols0Row(cols, i)
		}
		want := NewRidge(1)
		werr := want.Fit(rows, y)
		views := make([]*stats.Centered, p)
		for j, c := range cols {
			v := stats.Center(c)
			views[j] = &v
		}
		yv := stats.Center(y)
		got := NewRidge(1)
		gerr := got.FitCentered(views, &yv)
		label := fmt.Sprintf("trial %d (n=%d, p=%d)", trial, n, p)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: Fit error %v, FitCentered error %v", label, werr, gerr)
		}
		if werr != nil {
			failed++
			continue
		}
		if d := ridgeBitsDiffer(want, got); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
		for j := range want.featMean {
			if math.Float64bits(want.featMean[j]) != math.Float64bits(got.featMean[j]) ||
				math.Float64bits(want.featStd[j]) != math.Float64bits(got.featStd[j]) {
				t.Fatalf("%s: feature %d standardized by (%v, %v), MeanStd gives (%v, %v)",
					label, j, got.featMean[j], got.featStd[j], want.featMean[j], want.featStd[j])
			}
		}
	}
	t.Logf("column kinds (varying, constant, NaN, constant+NaN): %v; %d of 400 fits failed alike", kinds, failed)
	if failed > 200 {
		t.Fatalf("%d of 400 fits failed; the bit comparison covers too little", failed)
	}
}
