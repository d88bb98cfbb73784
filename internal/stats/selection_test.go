package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSorted is the sort-based reference the selection code must agree with.
func refSorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// refQuantile is the nearest-rank quantile read off a full sort.
func refQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := refSorted(xs)
	switch {
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// refMAD is the median absolute deviation computed from two full sorts.
func refMAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := refQuantile(xs, 0.5)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return refQuantile(dev, 0.5)
}

// sameOrderStat reports whether got is the value the sort reference put at
// the same rank, bit for bit. Two classes of values are equal under
// sort.Float64s' ordering and so leave the choice to the algorithm: ±0
// (compared with ==) and NaNs of any payload.
func sameOrderStat(got, want float64) bool {
	switch {
	case math.Float64bits(got) == math.Float64bits(want):
		return true
	case got == 0 && want == 0:
		return true
	default:
		return got != got && want != want
	}
}

// fuzzPalette maps bytes to values when a fuzz input asks for heavy ties:
// every special the order statistic must handle, plus a few plain values.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1),
	0.5, 1e300, -1e300, 3,
}

// decodeSample turns fuzz bytes into a sample and a quantile. The first
// byte picks the encoding: an even one reads the rest as little-endian
// float64 bits; an odd one maps each byte through fuzzPalette, so short
// inputs already carry many ties and specials. The second byte is q·255.
func decodeSample(data []byte) (xs []float64, q float64) {
	if len(data) < 2 {
		return nil, 0.5
	}
	mode, body := data[0], data[2:]
	q = float64(data[1]) / 255
	if mode%2 == 0 {
		for len(body) >= 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(body)))
			body = body[8:]
		}
		return xs, q
	}
	for _, b := range body {
		xs = append(xs, fuzzPalette[int(b)%len(fuzzPalette)])
	}
	return xs, q
}

// checkSelection compares every selection-backed statistic on xs with the
// sort reference, and checks that none of them modifies xs.
func checkSelection(t *testing.T, xs []float64, q float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	wantMed, wantMAD := refQuantile(xs, 0.5), refMAD(xs)

	med, mad := MedianMAD(xs, nil)
	if !sameOrderStat(med, wantMed) || !sameOrderStat(mad, wantMAD) {
		t.Fatalf("MedianMAD(%v) = (%v, %v), sort reference (%v, %v)", xs, med, mad, wantMed, wantMAD)
	}
	scratch := make([]float64, len(xs)+3)
	med, mad = MedianMAD(xs, scratch)
	if !sameOrderStat(med, wantMed) || !sameOrderStat(mad, wantMAD) {
		t.Fatalf("MedianMAD(%v, scratch) = (%v, %v), sort reference (%v, %v)", xs, med, mad, wantMed, wantMAD)
	}
	if got := Median(xs); !sameOrderStat(got, wantMed) {
		t.Fatalf("Median(%v) = %v, sort reference %v", xs, got, wantMed)
	}
	if got := MAD(xs); !sameOrderStat(got, wantMAD) {
		t.Fatalf("MAD(%v) = %v, sort reference %v", xs, got, wantMAD)
	}
	if got, want := Quantile(xs, q), refQuantile(xs, q); !sameOrderStat(got, want) {
		t.Fatalf("Quantile(%v, %v) = %v, sort reference %v", xs, q, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("input modified at %d: %v -> %v", i, orig[i], xs[i])
		}
	}
}

// FuzzMedianMAD is the differential check of the selection fast path
// against the sort it replaced: MedianMAD, Median, MAD and Quantile must
// return the order statistic a full sort.Float64s puts at the same rank.
func FuzzMedianMAD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, q := decodeSample(data)
		checkSelection(t, xs, q)

		// The partial order selectKth leaves behind: nothing before k is
		// greater, nothing after it smaller (NaN ordering first).
		if len(xs) == 0 {
			return
		}
		a := append([]float64(nil), xs...)
		k := rankIndex(q, len(a))
		selectKth(a, k)
		less := func(x, y float64) bool { return x < y || (x != x && y == y) }
		for i := range a {
			if (i < k && less(a[k], a[i])) || (i > k && less(a[i], a[k])) {
				t.Fatalf("selectKth(k=%d) left %v at %d against %v", k, a[i], i, a[k])
			}
		}
	})
}

// TestSelectionMatchesSortRandom runs the differential check over random
// samples of every size up to 300, drawn from continuous and tied values.
func TestSelectionMatchesSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			if n%3 == 0 {
				xs[i] = float64(rng.Intn(4))
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
		checkSelection(t, xs, rng.Float64())
	}
}

// adversarialInputs are the orderings that defeat a naive quickselect's
// pivot rule, at one week of 5-minute slices.
func adversarialInputs(n int) map[string][]float64 {
	sorted := make([]float64, n)
	reverse := make([]float64, n)
	organ := make([]float64, n)
	killer := make([]float64, n)
	equal := make([]float64, n)
	for i := 0; i < n; i++ {
		sorted[i] = float64(i)
		reverse[i] = float64(n - i)
		organ[i] = float64(min(i, n-1-i))
		equal[i] = 7
	}
	// Musser's median-of-3 killer: a permutation of 1..n (n = 2k, k even)
	// on which median-of-first/middle/last pivots keep splitting off two
	// elements at a time.
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			killer[i-1] = float64(i)
			killer[i] = float64(k + i)
		}
		killer[k+i-1] = float64(2 * i)
	}
	return map[string][]float64{
		"sorted": sorted, "reverse": reverse, "organ-pipe": organ,
		"median-of-3-killer": killer, "all-equal": equal,
	}
}

// TestSelectionWorstCaseComparisons counts comparisons on the adversarial
// orderings: every rank stays within a small multiple of n·log₂n, the
// introselect bound, and still matches the sort.
func TestSelectionWorstCaseComparisons(t *testing.T) {
	const n = 2016
	bound := 4 * n * 11 // 4·n·⌈log₂ n⌉
	for name, xs := range adversarialInputs(n) {
		want := refSorted(xs)
		for _, k := range []int{0, n / 4, rankIndex(0.5, n), n - 1} {
			a := append([]float64(nil), xs...)
			cmps := selectKth(a, k)
			if a[k] != want[k] {
				t.Fatalf("%s k=%d: got %v, sort says %v", name, k, a[k], want[k])
			}
			if cmps > bound {
				t.Fatalf("%s k=%d: %d comparisons, bound 4·n·log₂n = %d", name, k, cmps, bound)
			}
			t.Logf("%s k=%d: %d comparisons (%.2f·n)", name, k, cmps, float64(cmps)/n)
		}
	}
}

// TestIntroselectFallbackSorts drives the heap-sort fallback directly, with
// the bad-pivot budget already spent, and checks it selects correctly.
func TestIntroselectFallbackSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{13, 100, 2016} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n / 3))
		}
		want := refSorted(xs)
		for _, budget := range []int{0, 1} {
			k := rankIndex(0.5, n)
			a := append([]float64(nil), xs...)
			introselect(a, k, budget)
			if a[k] != want[k] {
				t.Fatalf("n=%d budget=%d: got %v, sort says %v", n, budget, a[k], want[k])
			}
		}
	}
}

// TestMedianMADNoAllocWithScratch pins the reuse contract: with a scratch
// buffer of the right size, MedianMAD allocates nothing.
func TestMedianMADNoAllocWithScratch(t *testing.T) {
	xs := make([]float64, 2016)
	for i := range xs {
		xs[i] = float64((i * 7919) % 2016)
	}
	scratch := make([]float64, len(xs))
	if allocs := testing.AllocsPerRun(10, func() { MedianMAD(xs, scratch) }); allocs != 0 {
		t.Fatalf("MedianMAD with scratch allocated %v times per call", allocs)
	}
}
