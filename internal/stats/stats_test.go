package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "mean")
	almost(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	almost(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "stddev")
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice mean/variance should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-element variance should be 0")
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		m, s := MeanStd(xs)
		almost(t, m, Mean(xs), 1e-9, "MeanStd mean")
		almost(t, s, StdDev(xs), 1e-9, "MeanStd std")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max wrong: %v %v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be infinities")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, r, 1, 1e-12, "perfect positive correlation")
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	almost(t, r, -1, 1e-12, "perfect negative correlation")
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series should give r=0, got %v err %v", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("n<2 should error")
	}
}

func TestAbsPearsonSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.NormFloat64(), r.NormFloat64()
		}
		a, b := AbsPearson(xs, ys), AbsPearson(ys, xs)
		return math.Abs(a-b) < 1e-12 && a >= 0 && a <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	almost(t, StudentTCDF(0, 10), 0.5, 1e-12, "t=0")
	almost(t, StudentTCDF(1.812, 10), 0.95, 1e-3, "t_{0.95,10}")
	almost(t, StudentTCDF(2.228, 10), 0.975, 1e-3, "t_{0.975,10}")
	almost(t, StudentTCDF(-2.228, 10), 0.025, 1e-3, "lower tail symmetry")
	// Large df converges to the normal distribution.
	almost(t, StudentTCDF(1.96, 1e6), NormalCDF(1.96), 1e-4, "df->inf")
	if StudentTCDF(math.Inf(1), 5) != 1 || StudentTCDF(math.Inf(-1), 5) != 0 {
		t.Fatal("infinite t should saturate CDF")
	}
}

func TestStudentTCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		if math.IsNaN(lo) || math.IsInf(lo, 0) {
			return true
		}
		return StudentTCDF(lo, 7) <= StudentTCDF(hi, 7)+1e-12
	}
	cfg := &quick.Config{Values: nil, MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSignTest checks exact binomial p-values against hand-computed sums
// of C(n, i)/2ⁿ, symmetry in its two counts, and the edge cases.
func TestSignTest(t *testing.T) {
	cases := []struct {
		wins, losses int
		want         float64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{3, 0, 0.25},
		{10, 0, 2.0 / 1024},
		{9, 1, 2 * 11.0 / 1024},
		{8, 2, 2 * 56.0 / 1024},
		{7, 3, 2 * 176.0 / 1024},
		{5, 5, 1},
		{20, 0, 2.0 / (1 << 20)},
		{15, 5, 2 * 21700.0 / (1 << 20)},
	}
	for _, c := range cases {
		for _, swap := range []bool{false, true} {
			w, l := c.wins, c.losses
			if swap {
				w, l = l, w
			}
			if got := SignTest(w, l); math.Abs(got-c.want) > 1e-12*c.want {
				t.Errorf("SignTest(%d, %d) = %v, want %v", w, l, got, c.want)
			}
		}
	}
	// Large n stays finite and shrinks as the split grows more uneven.
	prev := 1.0
	for w := 500; w <= 700; w += 50 {
		p := SignTest(w, 1000-w)
		if math.IsNaN(p) || p > prev || p < 0 {
			t.Fatalf("SignTest(%d, %d) = %v after %v", w, 1000-w, p, prev)
		}
		prev = p
	}
	defer func() {
		if recover() == nil {
			t.Error("SignTest(-1, 3) did not panic")
		}
	}()
	SignTest(-1, 3)
}

func TestWelchTTestSeparatesMeans(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1.0
	}
	res, err := WelchTTest(a, b, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("clearly separated means should have tiny p, got %v", res.P)
	}
	res, _ = WelchTTest(a, b, Greater)
	if res.P < 0.999 {
		t.Fatalf("wrong-direction alternative should have p~1, got %v", res.P)
	}
}

func TestWelchTTestIdenticalSamples(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := make([]float64, 200)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	res, err := WelchTTest(a, a, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.99 {
		t.Fatalf("identical samples should not reject, p=%v", res.P)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	res, err := WelchTTest([]float64{1, 1, 1}, []float64{2, 2, 2}, Less)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("constant a<b under Less should be p=0, got %v", res.P)
	}
	res, _ = WelchTTest([]float64{2, 2}, []float64{2, 2}, TwoSided)
	if res.P != 1 {
		t.Fatalf("equal constants should be p=1, got %v", res.P)
	}
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}, Less); err == nil {
		t.Fatal("n<2 should error")
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		almost(t, NormalCDF(x), p, 1e-9, "round trip")
	}
	almost(t, NormalQuantile(0.975), 1.959964, 1e-5, "z_{0.975}")
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile boundary values should be infinite")
	}
}

func TestRegIncBetaBoundaries(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.37, 0.9} {
		almost(t, RegIncBeta(1, 1, x), x, 1e-10, "uniform case")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	almost(t, RegIncBeta(2.5, 4, 0.3), 1-RegIncBeta(4, 2.5, 0.7), 1e-10, "symmetry")
}

func TestMASE(t *testing.T) {
	train := []float64{1, 2, 3, 4, 5} // naive MAE = 1
	pred := []float64{6, 7}
	actual := []float64{6.5, 6.5}
	m, err := MASE(pred, actual, train)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, m, 0.5, 1e-12, "MASE")
	if _, err := MASE([]float64{1}, []float64{1, 2}, train); err == nil {
		t.Fatal("length mismatch should error")
	}
	m, err = MASE([]float64{5}, []float64{5}, []float64{2, 2, 2})
	if err != nil || m != 0 {
		t.Fatalf("flat train, zero error should give 0: %v %v", m, err)
	}
	m, _ = MASE([]float64{5}, []float64{6}, []float64{2, 2, 2})
	if !math.IsInf(m, 1) {
		t.Fatalf("flat train with error should be +Inf, got %v", m)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	almost(t, e.At(0), 0, 1e-12, "below range")
	almost(t, e.At(2), 0.6, 1e-12, "at tie")
	almost(t, e.At(100), 1, 1e-12, "above range")
	almost(t, e.Quantile(0.5), 2, 1e-12, "median")
	almost(t, e.Quantile(1), 10, 1e-12, "max quantile")
	almost(t, e.Quantile(0), 1, 1e-12, "min quantile")
	if e.Len() != 5 {
		t.Fatalf("Len = %d", e.Len())
	}
	if !math.IsNaN(NewECDF(nil).Quantile(0.5)) {
		t.Fatal("empty ECDF quantile should be NaN")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(40))
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		e := NewECDF(xs)
		prev := -1.0
		for q := -2.0; q <= 2.0; q += 0.25 {
			v := e.At(q)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZScore(t *testing.T) {
	hist := []float64{10, 10, 10, 10, 14, 6} // mean 10, std 2.53...
	z := ZScore(10, hist)
	almost(t, z, 0, 1e-12, "at mean")
	if ZScore(20, hist) <= 0 {
		t.Fatal("above mean should be positive")
	}
	if !math.IsInf(ZScore(5, []float64{3, 3, 3}), 1) {
		t.Fatal("zero-variance history, off-mean value should be +Inf")
	}
	if ZScore(3, []float64{3, 3, 3}) != 0 {
		t.Fatal("zero-variance history at mean should be 0")
	}
}

func TestQuantileHelper(t *testing.T) {
	xs := []float64{5, 1, 3}
	almost(t, Quantile(xs, 0.5), 3, 1e-12, "median helper")
	// Input must not be mutated.
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestMedianMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	almost(t, Median(xs), 3, 1e-12, "median")
	almost(t, MAD(xs), 1, 1e-12, "MAD") // deviations 2,1,0,1,97 -> median 1
	if !math.IsNaN(Median(nil)) || !math.IsNaN(MAD(nil)) {
		t.Fatal("empty median/MAD should be NaN")
	}
}

func TestRobustZ(t *testing.T) {
	hist := []float64{10, 10, 11, 9, 10, 10, 12, 8}
	if z := RobustZ(10, hist); math.Abs(z) > 0.5 {
		t.Fatalf("central value robust z = %v", z)
	}
	if z := RobustZ(100, hist); z < 10 {
		t.Fatalf("outlier robust z = %v, want large", z)
	}
	// Robustness: one enormous historical outlier barely moves the score.
	contaminated := append(append([]float64(nil), hist...), 1e9)
	a, b := RobustZ(100, hist), RobustZ(100, contaminated)
	if math.Abs(a-b) > a*0.5 {
		t.Fatalf("MAD scale should resist contamination: %v vs %v", a, b)
	}
	// Zero-MAD history falls back to classic z; constant history is capped.
	if z := RobustZ(5, []float64{3, 3, 3}); z != 1e6 {
		t.Fatalf("constant-history robust z = %v, want capped 1e6", z)
	}
	if z := RobustZ(-5, []float64{3, 3, 3, 3}); z != -1e6 {
		t.Fatalf("constant-history negative robust z = %v, want -1e6", z)
	}
	if RobustZ(7, nil) != 0 {
		t.Fatal("empty history robust z should be 0")
	}
}
