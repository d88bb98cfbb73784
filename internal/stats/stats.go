// Package stats provides the statistical primitives Murphy's diagnosis
// pipeline depends on: descriptive statistics, Pearson correlation, Welch's
// t-test (with a Student-t CDF built on the regularized incomplete beta
// function), normal-distribution helpers, MASE forecast error, and empirical
// CDFs. Everything is stdlib-only and deterministic given a seed.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more observations
// than it was given.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when fewer than two observations are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanStd returns both the mean and the sample standard deviation in one pass
// over the data.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n < 2 {
		return mean, 0
	}
	s := 0.0
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(n-1))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant, and an error when the series
// lengths differ or fewer than two points are supplied.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// AbsPearson returns |Pearson(xs, ys)|, treating errors and NaNs as zero
// correlation. It is the convenience form used for feature ranking, where a
// degenerate series simply means "uninformative neighbor".
func AbsPearson(xs, ys []float64) float64 {
	r, err := Pearson(xs, ys)
	if err != nil || math.IsNaN(r) {
		return 0
	}
	return math.Abs(r)
}

// Centered is a precomputed centered view of one series: the series itself,
// its mean, and its centered sum of squares. Training ranks every (neighbor,
// target) metric pair by |Pearson|; computing the correlation from two
// Centered series reduces the per-pair cost to a single pass over the
// differences, instead of re-deriving both means and both sums of squares on
// every pair.
//
// The view holds no centered copy: the cross sum subtracts the mean on the
// fly, which is exactly the subtraction a stored copy would hold, so the bits
// are the same without n extra values per series. The moments are
// accumulated in the same operation order as Pearson and MeanStd, so
// AbsPearsonCentered is bit-identical to AbsPearson on the raw series and
// √(SumSq/(n−1)) to MeanStd's standard deviation.
type Centered struct {
	// Src is the source series (not a copy; the view must not outlive a
	// mutation of it).
	Src []float64
	// Mean is the arithmetic mean of Src.
	Mean float64
	// SumSq is Σ (Src[i]−Mean)² accumulated in index order.
	SumSq float64
}

// Center computes the centered view of xs: one pass derives the mean,
// exactly as Pearson does, and a second accumulates the centered sum of
// squares. It allocates nothing.
func Center(xs []float64) Centered {
	c := Centered{Src: xs, Mean: Mean(xs)}
	for _, x := range xs {
		d := x - c.Mean
		c.SumSq += d * d
	}
	return c
}

// AbsPearsonCentered returns |Pearson| of the two source series given their
// centered views. It is bit-for-bit identical to calling AbsPearson on the
// raw series: the cross sum runs over the same centered differences in the
// same order, and the per-series sums of squares were accumulated
// identically by Center.
func AbsPearsonCentered(a, b *Centered) float64 {
	if len(a.Src) != len(b.Src) || len(a.Src) < 2 {
		return 0
	}
	if a.SumSq == 0 || b.SumSq == 0 {
		return 0
	}
	ma, mb := a.Mean, b.Mean
	ys := b.Src[:len(a.Src)]
	sxy := 0.0
	for i, x := range a.Src {
		sxy += (x - ma) * (ys[i] - mb)
	}
	r := sxy / math.Sqrt(a.SumSq*b.SumSq)
	if math.IsNaN(r) {
		return 0
	}
	return math.Abs(r)
}

// TTestResult reports the outcome of a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // t statistic (mean(a) - mean(b), scaled)
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // p-value for the requested alternative
}

// Alternative selects the alternative hypothesis of a t-test.
type Alternative int

const (
	// TwoSided tests mean(a) != mean(b).
	TwoSided Alternative = iota
	// Less tests mean(a) < mean(b).
	Less
	// Greater tests mean(a) > mean(b).
	Greater
)

// WelchTTest performs Welch's unequal-variance t-test of the means of a and
// b under the given alternative. Murphy uses it to decide whether the
// counterfactual samples of the symptom metric are significantly lower than
// the factual ones (§4.2 step 4).
func WelchTTest(a, b []float64, alt Alternative) (TTestResult, error) {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	ma, sa := MeanStd(a)
	mb, sb := MeanStd(b)
	va, vb := sa*sa/na, sb*sb/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		// Both samples are constant. Degenerate but well-defined: the test
		// is decided purely by the ordering of the two means.
		r := TTestResult{T: 0, DF: na + nb - 2, P: 1}
		switch {
		case ma == mb:
			r.P = 1
		case alt == Less && ma < mb, alt == Greater && ma > mb, alt == TwoSided:
			r.P = 0
			r.T = math.Inf(1)
			if ma < mb {
				r.T = math.Inf(-1)
			}
		}
		return r, nil
	}
	t := (ma - mb) / se
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	var p float64
	switch alt {
	case Less:
		p = StudentTCDF(t, df)
	case Greater:
		p = 1 - StudentTCDF(t, df)
	default:
		p = 2 * StudentTCDF(-math.Abs(t), df)
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

// SignTest is the exact two-sided binomial sign test of paired
// comparisons: under the null hypothesis each of the wins+losses untied
// pairs goes either way with probability ½, and the p-value is the
// probability of a split at least as uneven as min(wins, losses) against
// the rest. Ties carry no sign; the caller leaves them out. With no untied
// pairs it returns 1. Negative counts are a caller bug and panic.
func SignTest(wins, losses int) float64 {
	if wins < 0 || losses < 0 {
		panic("stats: SignTest with a negative count")
	}
	n := wins + losses
	// 2·P(X ≤ k) for X ~ Binomial(n, ½), each term in log space so 2⁻ⁿ
	// does not underflow before the binomial coefficient scales it up.
	lgN, _ := math.Lgamma(float64(n + 1))
	tail := 0.0
	for i := 0; i <= min(wins, losses); i++ {
		a, _ := math.Lgamma(float64(i + 1))
		b, _ := math.Lgamma(float64(n - i + 1))
		tail += math.Exp(lgN - a - b - float64(n)*math.Ln2)
	}
	return math.Min(1, 2*tail)
}

// StudentTCDF returns P(T <= t) for a Student-t distribution with df degrees
// of freedom, computed through the regularized incomplete beta function.
func StudentTCDF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	ib := RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's method).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// NormalCDF returns P(X <= x) for a standard normal variable.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the x such that NormalCDF(x) = p, for p in (0, 1),
// using the Acklam rational approximation refined by one Newton step.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Rational approximation coefficients.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const pl = 0.02425
	var x float64
	switch {
	case p < pl:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pl:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Newton refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// MASE returns the mean absolute scaled error of predictions against actuals,
// scaled by the in-sample naive (lag-1) forecast error of the training series
// (Hyndman & Koehler). This is the per-entity prediction error plotted in
// Fig 8a. It returns an error when inputs are degenerate.
func MASE(pred, actual, train []float64) (float64, error) {
	if len(pred) != len(actual) || len(pred) == 0 {
		return 0, errors.New("stats: MASE length mismatch")
	}
	if len(train) < 2 {
		return 0, ErrInsufficientData
	}
	naive := 0.0
	for i := 1; i < len(train); i++ {
		naive += math.Abs(train[i] - train[i-1])
	}
	naive /= float64(len(train) - 1)
	mae := 0.0
	for i := range pred {
		mae += math.Abs(pred[i] - actual[i])
	}
	mae /= float64(len(pred))
	if naive == 0 {
		if mae == 0 {
			return 0, nil
		}
		// A perfectly flat training series with non-zero test error: the
		// error is effectively unbounded; report a large sentinel.
		return math.Inf(1), nil
	}
	return mae / naive, nil
}

// ECDF is an empirical cumulative distribution over a fixed sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the sample xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample that is <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th sample quantile, q in [0, 1], by nearest-rank.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[rankIndex(q, len(e.sorted))]
}

// Len returns the sample size underlying the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Quantile returns the q-th quantile of xs by nearest rank, the value
// NewECDF(xs).Quantile(q) returns, found by selection on a copy instead of a
// sort. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	a := append([]float64(nil), xs...)
	k := rankIndex(q, len(a))
	selectKth(a, k)
	return a[k]
}

// Median returns the sample median (nearest rank), or NaN for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MAD returns the median absolute deviation around the median, the robust
// scale estimate used for anomaly ranking. Empty input yields NaN.
func MAD(xs []float64) float64 {
	_, mad := MedianMAD(xs, nil)
	return mad
}

// RobustZ returns a robust z-score of x against hist: deviation from the
// median scaled by 1.4826*MAD (the normal-consistent MAD factor). When MAD
// is zero it falls back to the classic ZScore, and its magnitude is capped
// at 1e6 so a zero-variance history cannot produce infinities in rankings.
func RobustZ(x float64, hist []float64) float64 {
	if len(hist) == 0 {
		return 0
	}
	med, mad := MedianMAD(hist, nil)
	scale := 1.4826 * mad
	var z float64
	if scale == 0 {
		z = ZScore(x, hist)
	} else {
		z = (x - med) / scale
	}
	switch {
	case z > 1e6 || math.IsInf(z, 1):
		return 1e6
	case z < -1e6 || math.IsInf(z, -1):
		return -1e6
	case math.IsNaN(z):
		return 0
	}
	return z
}

// ZScore returns how many standard deviations x lies from the mean of the
// historical sample hist. A zero-variance history yields 0 when x equals the
// mean and +Inf/-Inf otherwise; this is the "anomaly score" Murphy uses to
// rank root causes (§4.2).
func ZScore(x float64, hist []float64) float64 {
	m, s := MeanStd(hist)
	if s == 0 {
		switch {
		case x == m:
			return 0
		case x > m:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return (x - m) / s
}
