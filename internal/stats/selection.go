// Order statistics by selection. A nearest-rank quantile is one element of
// the sorted sample, so it can be found without sorting: an introselect pass
// reorders a scratch copy just enough to put the k-th element in place, in
// O(n) expected and O(n log n) worst-case comparisons. The element returned
// is the one sort.Float64s would place at index k (NaNs order first, exactly
// as in sort.Float64s), so every statistic built on it is bit-identical to
// its sort-based definition. The one unspecified case is the sign of a zero:
// ±0 compare equal, so which of them lands at k is up to the algorithm, in
// the sort as well as here.
package stats

import (
	"math"
	"math/bits"
)

// rankIndex returns the nearest-rank index of quantile q in a sample of n
// sorted values: q ≤ 0 is the minimum, q ≥ 1 the maximum.
func rankIndex(q float64, n int) int {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n - 1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// MedianMAD returns the nearest-rank median of xs and the median absolute
// deviation around it, bit-identical to Median(xs) and MAD(xs) but computed
// by two O(n) selections instead of three full sorts. scratch is working
// space: when it holds at least len(xs) values no allocation happens, so a
// caller looping over many series can reuse one buffer. xs is not modified.
// Empty input yields (NaN, NaN).
func MedianMAD(xs, scratch []float64) (med, mad float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	a := scratch[:n]
	copy(a, xs)
	k := rankIndex(0.5, n)
	selectKth(a, k)
	med = a[k]
	// a is a permutation of xs, so its deviations are the same multiset.
	for i, x := range a {
		a[i] = math.Abs(x - med)
	}
	selectKth(a, k)
	return med, a[k]
}

// selectKth reorders a so that a[k] holds the value sort.Float64s would put
// at index k, with no greater value before it and no smaller value after it
// (NaN counting as smallest). It returns the number of value comparisons
// made, which the tests use to bound the worst case.
func selectKth(a []float64, k int) (cmps int) {
	// NaNs first, as sort.Float64s orders them; on what remains, plain <
	// orders values exactly as the sort's comparison does.
	nan := 0
	for i, v := range a {
		if v != v {
			a[i], a[nan] = a[nan], v
			nan++
		}
	}
	cmps = len(a)
	if k < nan {
		return cmps
	}
	return cmps + introselect(a[nan:], k-nan, 2*bits.Len(uint(len(a))))
}

// introselect places the k-th smallest of a (no NaNs) at a[k]. It is a
// quickselect that stops trusting its pivots after budget badly unbalanced
// partitions and heap-sorts what is left, so inputs built to defeat the
// pivot rule — sorted, organ-pipe or median-of-3-killer sequences arriving
// through ingest — cost O(n log n), never O(n²).
func introselect(a []float64, k, budget int) (cmps int) {
	lo, hi := 0, len(a)
	for hi-lo > 12 {
		if budget == 0 {
			return cmps + heapSort(a[lo:hi])
		}
		cmps += pivotToFront(a, lo, hi)
		j, c := partition(a, lo, hi)
		cmps += c
		size := hi - lo
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
		if 8*(hi-lo) > 7*size {
			budget--
		}
	}
	return cmps + insertionSort(a[lo:hi])
}

// pivotToFront moves the pivot — the median of three samples, or Tukey's
// ninther on larger ranges — to a[lo].
func pivotToFront(a []float64, lo, hi int) (cmps int) {
	n := hi - lo
	mid := lo + n/2
	m := mid
	if n >= 40 {
		s := n / 8
		i, c1 := median3(a, lo, lo+s, lo+2*s)
		j, c2 := median3(a, mid-s, mid, mid+s)
		l, c3 := median3(a, hi-1-2*s, hi-1-s, hi-1)
		var c4 int
		m, c4 = median3(a, i, j, l)
		cmps = c1 + c2 + c3 + c4
	} else {
		m, cmps = median3(a, lo, mid, hi-1)
	}
	a[lo], a[m] = a[m], a[lo]
	return cmps
}

// median3 returns the index of the median of a[i], a[j], a[l].
func median3(a []float64, i, j, l int) (int, int) {
	if a[j] < a[i] {
		i, j = j, i
	}
	// a[i] <= a[j]
	if a[l] < a[j] {
		if a[l] < a[i] {
			return i, 3
		}
		return l, 3
	}
	return j, 2
}

// partition is Hoare's scheme around the pivot value at a[lo]. It returns j
// with every a[lo..j] ≤ pivot ≤ every a[j+1..hi-1] and lo ≤ j < hi-1, so
// both sides are non-empty and the selection always makes progress. Values
// equal to the pivot stop both scans, which splits runs of ties evenly.
func partition(a []float64, lo, hi int) (j, cmps int) {
	p := a[lo]
	i := lo - 1
	j = hi
	for {
		for {
			i++
			cmps++
			if !(a[i] < p) {
				break
			}
		}
		for {
			j--
			cmps++
			if !(p < a[j]) {
				break
			}
		}
		if i >= j {
			return j, cmps
		}
		a[i], a[j] = a[j], a[i]
	}
}

// insertionSort sorts a short run in place.
func insertionSort(a []float64) (cmps int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for j > 0 {
			cmps++
			if !(v < a[j-1]) {
				break
			}
			a[j] = a[j-1]
			j--
		}
		a[j] = v
	}
	return cmps
}

// heapSort sorts a in place in O(n log n) comparisons whatever its order:
// the fallback once quickselect's pivots have gone bad too often.
func heapSort(a []float64) (cmps int) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		cmps += siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		cmps += siftDown(a, 0, end)
	}
	return cmps
}

// siftDown restores the max-heap property below root within a[:n].
func siftDown(a []float64, root, n int) (cmps int) {
	for {
		child := 2*root + 1
		if child >= n {
			return cmps
		}
		if child+1 < n {
			cmps++
			if a[child] < a[child+1] {
				child++
			}
		}
		cmps++
		if !(a[root] < a[child]) {
			return cmps
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}
