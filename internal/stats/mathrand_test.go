package stats

import (
	"math"
	"math/rand"
	"testing"
)

// mathRandSeeds are the seeding edge cases: rand.NewSource reduces a seed
// modulo 2³¹−1, maps negatives into range, and replaces 0 with 89482311,
// so 0, the multiples of 2³¹−1 and 89482311 all name one stream.
var mathRandSeeds = []int64{
	0, 1, -1, 2, -12345, 42, 89482311,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	1<<31 - 1, 3 * (1<<31 - 1), -(1<<31 - 1), 1 << 31, -(1 << 31),
}

// replayOps drives a MathRandSource and a math/rand reference with the same
// seed through one op sequence and fails on the first draw whose bits
// differ. Each byte is one op: b%3 picks NormFloat64 (b/3%4+1 draws),
// AddNoise (b/3 elements) or SkipNorm (b/3 draws, then one compared draw so
// the skip's alignment is checked even at the end of the sequence).
func replayOps(t *testing.T, seed int64, ops []byte) (draws int) {
	t.Helper()
	src := NewMathRandSource(seed)
	ref := rand.New(rand.NewSource(seed))
	same := func(op int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d op %d (byte %#x), draw %d: got %v (%#x), want %v (%#x)",
				seed, op, ops[op], draws, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	var dst, want []float64
	for op, b := range ops {
		n := int(b / 3)
		switch b % 3 {
		case 0:
			for k := 0; k <= n%4; k++ {
				same(op, src.NormFloat64(), ref.NormFloat64())
				draws++
			}
		case 1:
			scale := 0.25 * float64(1+n%7)
			dst, want = dst[:0], want[:0]
			for i := 0; i < n; i++ {
				x := float64(i)*0.375 - 2
				dst = append(dst, x)
				want = append(want, x+ref.NormFloat64()*scale)
			}
			src.AddNoise(dst, scale)
			for i := range dst {
				same(op, dst[i], want[i])
				draws++
			}
		case 2:
			src.SkipNorm(n)
			for i := 0; i < n; i++ {
				ref.NormFloat64()
			}
			same(op, src.NormFloat64(), ref.NormFloat64())
			draws += n + 1
		}
	}
	return draws
}

// TestMathRandSourceMatchesStdlib checks the stream against math/rand over
// every seeding edge case, with a mixed op sequence of ~40k draws per seed
// that wraps the 607-word register many times.
func TestMathRandSourceMatchesStdlib(t *testing.T) {
	ops := make([]byte, 0, 1200)
	for i := 0; len(ops) < cap(ops); i++ {
		ops = append(ops, byte(i*37+i*i*11))
	}
	for _, seed := range mathRandSeeds {
		if draws := replayOps(t, seed, ops); draws < 30_000 {
			t.Fatalf("seed %d: only %d draws compared", seed, draws)
		}
	}
	// The empty calls are no-ops.
	a, b := NewMathRandSource(7), NewMathRandSource(7)
	a.AddNoise(nil, 1)
	a.SkipNorm(0)
	a.SkipNorm(-3)
	if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
		t.Fatalf("empty AddNoise/SkipNorm moved the stream: %v vs %v", x, y)
	}
}

// TestMathRandTablesMatchConstruction rebuilds the ziggurat tables with
// Marsaglia & Tsang's construction (the generator math/rand's tables came
// from: 128 layers, base strip edge mrR, layer area 9.91256303526217e-3,
// 2³¹-scaled integers) and requires every copied entry to match exactly.
// A wrong kn or fn entry shifts an accept boundary by too little for any
// sampled stream comparison to notice.
func TestMathRandTablesMatchConstruction(t *testing.T) {
	const (
		m1 = 1 << 31
		vn = 9.91256303526217e-3
	)
	var kn [128]uint32
	var wn, fn [128]float32
	dn := mrR
	tn := dn
	q := vn / math.Exp(-.5*dn*dn)
	kn[0] = uint32((dn / q) * m1)
	wn[0] = float32(q / m1)
	wn[127] = float32(dn / m1)
	fn[0] = 1
	fn[127] = float32(math.Exp(-.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-.5*dn*dn)))
		kn[i+1] = uint32((dn / tn) * m1)
		tn = dn
		fn[i] = float32(math.Exp(-.5 * dn * dn))
		wn[i] = float32(dn / m1)
	}
	for i := range kn {
		if kn[i] != mrKn[i] || wn[i] != mrWn[i] || fn[i] != mrFn[i] {
			t.Errorf("layer %d: table (kn %#x, wn %v, fn %v), construction (%#x, %v, %v)",
				i, mrKn[i], mrWn[i], mrFn[i], kn[i], wn[i], fn[i])
		}
	}
}

// wordLog is a math/rand Source that records the words each NormFloat64
// draw consumes, so a test can tell which ziggurat path the draw took.
type wordLog struct {
	src   rand.Source
	words []int64
}

func (w *wordLog) Int63() int64 {
	v := w.src.Int63()
	w.words = append(w.words, v)
	return v
}

func (w *wordLog) Seed(int64) { panic("wordLog: Seed") }

// Ziggurat paths of one draw, told apart by the words it consumed.
const (
	pathCommon = iota
	pathTailPos
	pathTailNeg
	pathWedgeAccept
	pathWedgeReject
	numPaths
)

var pathNames = [numPaths]string{"common", "tail+", "tail−", "wedge accept", "wedge reject"}

// classify names the path of a draw from its words: the first word's layer
// and inner-rectangle test, and for a wedge whether the draw ended with the
// wedge test's uniform (accept) or went on to a fresh word (reject).
func classify(words []int64) int {
	j := int32(uint32(words[0] >> 31))
	i := j & 0x7F
	switch {
	case mrAbs(j) < mrKn[i]:
		return pathCommon
	case i == 0 && j > 0:
		return pathTailPos
	case i == 0:
		return pathTailNeg
	case len(words) == 2:
		return pathWedgeAccept
	default:
		return pathWedgeReject
	}
}

// TestMathRandSourceSlowPaths walks 300k draws in chunks that alternate
// between NormFloat64, AddNoise and SkipNorm, compares every draw (a
// skipped chunk through the alignment of the next one), and requires each
// method to have met, and matched, the base-strip tail of both signs, a
// wedge accept and a wedge reject.
func TestMathRandSourceSlowPaths(t *testing.T) {
	const (
		seed  = 20230901
		chunk = 61
		draws = 300_000
	)
	log := &wordLog{src: rand.NewSource(seed)}
	ref := rand.New(log)
	src := NewMathRandSource(seed)
	var hits [3][numPaths]int
	want := make([]float64, chunk)
	dst := make([]float64, chunk)
	for c := 0; c*chunk < draws || c%3 != 1; c++ {
		mode := c % 3 // 0 NormFloat64, 1 AddNoise, 2 SkipNorm
		for i := range want {
			log.words = log.words[:0]
			want[i] = ref.NormFloat64()
			hits[mode][classify(log.words)]++
		}
		switch mode {
		case 0:
			for i, w := range want {
				if got := src.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("chunk %d draw %d: NormFloat64 = %v, want %v", c, i, got, w)
				}
			}
		case 1:
			clear(dst)
			src.AddNoise(dst, 1) // 0 + z·1 is z: no draw is −0
			for i, w := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(w) {
					t.Fatalf("chunk %d draw %d: AddNoise = %v, want %v", c, i, dst[i], w)
				}
			}
		case 2:
			src.SkipNorm(chunk) // checked by the next chunk's alignment
		}
	}
	for mode, name := range []string{"NormFloat64", "AddNoise", "SkipNorm"} {
		t.Logf("%s paths: %v", name, hits[mode])
		for p := pathTailPos; p < numPaths; p++ {
			if hits[mode][p] == 0 {
				t.Errorf("%s never took the %s path", name, pathNames[p])
			}
		}
	}
}

// FuzzMathRandSourceMatchesStdlib compares the stream with math/rand for an
// arbitrary seed and op sequence (see replayOps). Its seed corpus is in
// testdata/fuzz.
func FuzzMathRandSourceMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		replayOps(t, seed, ops)
	})
}

// wedgeRef is normal.go's wedge test as written there.
func wedgeRef(i int32, x, u float64) bool {
	return mrFn[i]+float32(u)*(mrFn[i-1]-mrFn[i]) < float32(math.Exp(-.5*x*x))
}

// wedgeX returns layer i's candidate for a word whose |j| is at or past the
// layer's inner rectangle, as the ziggurat forms it.
func wedgeX(i int32, j int32) float64 { return float64(j) * float64(mrWn[i]) }

// TestMathRandWedgeSqueezeMatchesExp holds the wedge squeeze to the
// stdlib's math.Exp comparison. It checks 10⁷ random wedge draws spread over
// layers 1–127 (both signs, the whole |j| range of each wedge), then, for
// candidates across every layer, the uniforms whose left side lands on the
// float32 right side itself or within 8 float32 steps of it, where only the
// bound's margin keeps the two tests apart.
func TestMathRandWedgeSqueezeMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const draws = 10_000_000
	decided := 0
	for k := 0; k < draws; k++ {
		i := int32(1 + k%127)
		lo := int64(mrKn[i])
		j := int32(lo + rng.Int63n(1<<31-lo))
		if rng.Intn(2) == 0 {
			j = -j
		}
		x, u := wedgeX(i, j), rng.Float64()
		if got, want := mrWedgeAccept(i, x, u), wedgeRef(i, x, u); got != want {
			t.Fatalf("layer %d x=%v u=%v: squeeze %v, math.Exp %v", i, x, u, got, want)
		}
		if _, ok := mrWedgeSqueeze(i, x, mrFn[i]+float32(u)*(mrFn[i-1]-mrFn[i])); ok {
			decided++
		}
	}
	t.Logf("the squeeze decided %d of %d uniform wedge draws (%.5f%%)", decided, draws, 100*float64(decided)/draws)

	near, onRHS := 0, 0
	for i := int32(1); i < 128; i++ {
		lo := int64(mrKn[i])
		for s := 0; s < 64; s++ {
			j := int32(lo + (1<<31-1-lo)*int64(s)/63)
			x := wedgeX(i, j)
			rhs := float32(math.Exp(-.5 * x * x))
			h := mrFn[i-1] - mrFn[i]
			u0 := float32((float64(rhs) - float64(mrFn[i])) / float64(h))
			for _, dir := range []float32{-1, 1} {
				uf := u0
				for step := 0; step < 24; step++ {
					if uf >= 0 && uf < 1 {
						lhs := mrFn[i] + uf*h
						if d := math.Abs(float64(lhs) - float64(rhs)); d <= 8*float64(math.Nextafter32(rhs, 2)-rhs) {
							near++
							if lhs == rhs {
								onRHS++
							}
							u := float64(uf)
							if got, want := mrWedgeAccept(i, x, u), wedgeRef(i, x, u); got != want {
								t.Fatalf("layer %d x=%v u=%v (lhs %v, rhs %v): squeeze %v, math.Exp %v", i, x, u, lhs, rhs, got, want)
							}
						}
					}
					uf = math.Nextafter32(uf, dir*2)
				}
			}
		}
	}
	if near < 127*64 || onRHS < 127 {
		t.Fatalf("only %d near-boundary uniforms (%d on the right side itself); the check covers too little", near, onRHS)
	}
	t.Logf("%d near-boundary uniforms checked, %d with the left side equal to the right", near, onRHS)
}

// TestMathRandWedgeSqueezeShare measures, over the wedge draws a real
// stream makes, how many the squeeze decides without math.Exp.
func TestMathRandWedgeSqueezeShare(t *testing.T) {
	src := NewMathRandSource(5)
	wedges, decided := 0, 0
	for wedges < 200_000 {
		j := int32(src.next() >> 31)
		i := j & 0x7F
		if i == 0 || mrAbs(j) < mrKn[i] {
			continue
		}
		wedges++
		lhs := mrFn[i] + float32(src.uniform())*(mrFn[i-1]-mrFn[i])
		if _, ok := mrWedgeSqueeze(i, wedgeX(i, j), lhs); ok {
			decided++
		}
	}
	share := float64(decided) / float64(wedges)
	t.Logf("the squeeze decided %d of %d stream wedge draws (%.5f%%)", decided, wedges, 100*share)
	if share < 0.999 {
		t.Fatalf("the squeeze decided only %.3f%% of wedge draws", 100*share)
	}
}
