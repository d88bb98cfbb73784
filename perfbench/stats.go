package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// dist summarizes a set of timings.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// TailPct is the percentile Tail reports within each segment: 99 when
	// a segment has at least 1000 samples, otherwise the highest percentile
	// with at least ten samples beyond it.
	TailPct float64
	// Segments is how many consecutive segments the tail is the median of.
	Segments int
}

// Tail segmentation: a run's samples, in the order they were taken, are
// cut into up to maxSegments segments of at least minSegment samples, and
// the reported tail is the median of the segments' tails. One stall of the
// machine then moves one segment's tail, not the run's.
const (
	maxSegments = 5
	minSegment  = 100
)

// minTailBeyond is how many samples must lie beyond the reported tail.
const minTailBeyond = 10

// summarize computes the median and segmented tail of xs, given in
// the order they were taken. It needs at least minTailBeyond+1 samples so
// the tail has ten samples beyond it.
func summarize(xs []float64) (dist, error) {
	n := len(xs)
	if n <= minTailBeyond {
		return dist{N: n}, fmt.Errorf("%d samples: a tail needs at least %d", n, minTailBeyond+1)
	}
	segs := n / minSegment
	if segs < 1 {
		segs = 1
	}
	if segs > maxSegments {
		segs = maxSegments
	}
	tails := make([]float64, segs)
	var pct float64
	for i := range tails {
		seg := append([]float64(nil), xs[i*n/segs:(i+1)*n/segs]...)
		sort.Float64s(seg)
		var idx int
		idx, pct = tailIndex(len(seg))
		tails[i] = seg[idx]
	}
	return dist{N: n, P50: medianOf(xs), Tail: medianOf(tails), TailPct: pct, Segments: segs}, nil
}

// tailIndex returns the index into n ascending samples of the tail value
// and the percentile it stands for. With n >= 1000 that is the p99 by
// nearest rank; with fewer samples it is the highest rank that still has
// minTailBeyond samples above it.
func tailIndex(n int) (idx int, pct float64) {
	idx = int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - minTailBeyond - 1; idx > lim {
		idx = lim
	}
	return idx, math.Floor(100 * float64(idx+1) / float64(n))
}

// median of an ascending slice; the mean of the middle pair for even n.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// littleTolerance is how far clients/(throughput × mean latency) may stray
// from 1 in a closed loop before the measurement is deemed broken.
const littleTolerance = 0.05

// littleCheck applies Little's law to a closed loop: with no think time,
// the number of clients equals throughput times mean latency. It returns
// the measured ratio throughput×latency/clients and an error when the
// ratio is off by more than littleTolerance.
func littleCheck(clients int, opsPerSec, meanLatSec float64) (float64, error) {
	ratio := opsPerSec * meanLatSec / float64(clients)
	if math.IsNaN(ratio) || math.Abs(ratio-1) > littleTolerance {
		return ratio, fmt.Errorf("Little's law: %d clients but throughput × mean latency = %.3f (ratio %.3f, tolerance %.2f)",
			clients, opsPerSec*meanLatSec, ratio, littleTolerance)
	}
	return ratio, nil
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric name: a letter or digit,
// then at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return metricNameRE.MatchString(s) }
