package main

import (
	"math"
	"testing"
)

func TestTailIndexLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int
		wantPct float64
	}{
		{11, 0, 9},
		{30, 19, 66},
		{100, 89, 90},
		{200, 189, 95},
		{999, 988, 98},
		{1000, 989, 99},
		{5000, 4949, 99},
	} {
		idx, pct := tailIndex(tc.n)
		if idx != tc.wantIdx || pct != tc.wantPct {
			t.Errorf("tailIndex(%d) = %d, p%.0f; want %d, p%.0f", tc.n, idx, pct, tc.wantIdx, tc.wantPct)
		}
		if beyond := tc.n - 1 - idx; beyond < minTailBeyond {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want >= %d", tc.n, beyond, minTailBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: summarize must sort
	}
	d, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 || d.Segments != 1 {
		t.Errorf("summarize = %+v", d)
	}
	if _, err := summarize(xs[:minTailBeyond]); err == nil {
		t.Errorf("summarize of %d samples: want an error, no tail has ten samples beyond", minTailBeyond)
	}
}

func TestSummarizeSegmentsTheTail(t *testing.T) {
	// 500 samples in five segments; a stall makes one segment slow.
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i % 100)
		if i >= 200 && i < 300 {
			xs[i] += 1000
		}
	}
	d, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Each segment's tail is its 90th value (ten beyond); the stalled
	// segment's is 1089, the median of the five is 89.
	if d.Segments != 5 || d.TailPct != 90 || d.Tail != 89 {
		t.Errorf("summarize = %+v; want the median of five segment tails, 89 at p90", d)
	}
	// Without segments the stall would have set the tail.
	if s, _ := tailIndex(500); s != 489 {
		t.Fatalf("tailIndex(500) = %d", s)
	}
}

func TestLittleCheck(t *testing.T) {
	// Two clients, 20 ops/s at 100 ms each: exactly two in flight.
	if r, err := littleCheck(2, 20, 0.1); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("littleCheck(2, 20, 0.1) = %v, %v; want 1, nil", r, err)
	}
	// Within tolerance.
	if _, err := littleCheck(1, 9.7, 0.1); err != nil {
		t.Errorf("3%% off: %v", err)
	}
	// A loop that idles 20% of the time is a measurement bug.
	if _, err := littleCheck(2, 16, 0.1); err == nil {
		t.Error("littleCheck(2, 16, 0.1): want an error")
	}
	if _, err := littleCheck(1, 0, math.NaN()); err == nil {
		t.Error("NaN latency: want an error")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "op_p50_ms", "core.train.factors", "obs.gibbs_samples", "serve.queued_ms", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", ".hidden", "_x", "core train", "p99/ms", "naïve", "a\nb", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}
