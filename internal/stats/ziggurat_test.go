package stats

import (
	"math"
	"testing"
)

// TestNormSourceMoments checks mean/variance/skew/kurtosis of a large fixed
// sample against the standard normal within generous bounds (the seed is
// fixed, so this is deterministic, not flaky).
func TestNormSourceMoments(t *testing.T) {
	const n = 2_000_000
	src := NewNormSource(12345)
	var s1, s2, s3, s4 float64
	for i := 0; i < n; i++ {
		x := src.NormFloat64()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("draw %d is %v", i, x)
		}
		s1 += x
		s2 += x * x
		s3 += x * x * x
		s4 += x * x * x * x
	}
	mean := s1 / n
	variance := s2/n - mean*mean
	skew := s3 / n
	kurt := s4 / n
	if math.Abs(mean) > 3e-3 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 5e-3 {
		t.Errorf("variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 1e-2 {
		t.Errorf("third moment = %v, want ~0", skew)
	}
	if math.Abs(kurt-3) > 5e-2 {
		t.Errorf("fourth moment = %v, want ~3", kurt)
	}
}

// TestNormSourceTails checks the tail mass beyond 1σ/2σ/3σ and that the
// ziggurat tail algorithm actually produces draws past the base strip edge.
func TestNormSourceTails(t *testing.T) {
	const n = 2_000_000
	src := NewNormSource(99)
	counts := [3]int{}
	beyondR := 0
	maxAbs := 0.0
	for i := 0; i < n; i++ {
		x := math.Abs(src.NormFloat64())
		for k, th := range [3]float64{1, 2, 3} {
			if x > th {
				counts[k]++
			}
		}
		if x > zigR {
			beyondR++
		}
		if x > maxAbs {
			maxAbs = x
		}
	}
	// 2·(1−Φ(k)) for k = 1, 2, 3.
	want := [3]float64{0.317310, 0.045500, 0.002700}
	for k := range counts {
		got := float64(counts[k]) / n
		if math.Abs(got-want[k]) > 0.15*want[k]+2e-4 {
			t.Errorf("P(|X|>%d) = %v, want ~%v", k+1, got, want[k])
		}
	}
	// P(|X| > 3.44) ≈ 5.8e-4: a 2M-draw sample must visit the tail.
	if beyondR == 0 {
		t.Error("no draws beyond the ziggurat base strip — tail path never taken")
	}
	if maxAbs < 4 {
		t.Errorf("max |draw| = %v over 2M draws, want > 4", maxAbs)
	}
}

// TestNormSourceDeterminism pins the stream to its seed: same seed, same
// sequence; different seed, different sequence.
func TestNormSourceDeterminism(t *testing.T) {
	a, b := NewNormSource(7), NewNormSource(7)
	for i := 0; i < 1000; i++ {
		if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
			t.Fatalf("draw %d: %v != %v for equal seeds", i, x, y)
		}
	}
	c := NewNormSource(8)
	same := 0
	a = NewNormSource(7)
	for i := 0; i < 1000; i++ {
		if a.NormFloat64() == c.NormFloat64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 7 and 8 shared %d of 1000 draws", same)
	}
}

// TestZigguratTables sanity-checks the constructed tables: widths strictly
// decreasing, curve heights strictly increasing to 1, and the top layer
// closing near the mode.
func TestZigguratTables(t *testing.T) {
	for i := 0; i < zigLayers; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		if zigF[i+1] <= zigF[i] {
			t.Fatalf("zigF not strictly increasing at %d", i)
		}
	}
	if zigX[zigLayers] != 0 {
		t.Errorf("zigX[%d] = %v, want 0", zigLayers, zigX[zigLayers])
	}
	if zigF[zigLayers] != 1 {
		t.Errorf("zigF[%d] = %v, want 1", zigLayers, zigF[zigLayers])
	}
	if zigX[1] != zigR || zigX[0] <= zigR {
		t.Errorf("base strip edges wrong: zigX[0]=%v zigX[1]=%v", zigX[0], zigX[1])
	}
}

func BenchmarkNormSource(b *testing.B) {
	src := NewNormSource(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.NormFloat64()
	}
	_ = sink
}

// TestSkipNoise32MatchesAddNoise32 pins the skip to the bulk noise call it
// stands in for: after AddNoise32 on n elements or SkipNoise32(n), both
// streams draw the same sequence, for even and odd n.
func TestSkipNoise32MatchesAddNoise32(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 1000} {
		a, b := NewNormSource(11), NewNormSource(11)
		a.AddNoise32(make([]float32, n), 1)
		b.SkipNoise32(n)
		for i := 0; i < 100; i++ {
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("n=%d draw %d: %v after AddNoise32, %v after SkipNoise32", n, i, x, y)
			}
		}
	}
}
