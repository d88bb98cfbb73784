// A concrete copy of math/rand's normal stream for the float64 Gibbs
// kernel. rand.New(rand.NewSource(seed)).NormFloat64() reaches its
// generator through Rand.NormFloat64, Rand.Uint32, Rand.Int63 and an
// interface call to the source, and none of it inlines into the kernel's
// loops. MathRandSource holds the same lagged-Fibonacci register and runs
// the same ziggurat, so its draws are bit-identical to that stream, and
// its bulk methods keep the register step and the ziggurat's common case
// inside their loops. Only a draw outside its layer's inner rectangle
// (about one in 40) calls out, to the stdlib's own slow-path arithmetic,
// whose wedge test a bound settles without math.Exp nearly every time.
//
// The ziggurat tables mrKn, mrWn and mrFn, the constant mrR and the draw
// algorithm are Go's math/rand (normal.go, rng.go):
//
//	Copyright 2009 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style license
//	that can be found at https://go.dev/LICENSE.

package stats

import (
	"math"
	"math/rand"
	"sync"
)

const (
	mrLen  = 607            // register length (math/rand rngLen)
	mrTap  = 273            // lag of the second tap (rngTap)
	mrMask = 1<<63 - 1      // Int63's mask
	mrR    = 3.442619855899 // right edge of the base strip (normal.go rn)
)

// MathRandSource is a standard-normal stream bit-identical to
// rand.New(rand.NewSource(seed)).NormFloat64(), for the same seed and the
// same number of draws. Each AddNoise or SkipNorm element is one such draw.
// Not safe for concurrent use: one stream per Gibbs chain.
type MathRandSource struct {
	tap, feed int
	vec       [mrLen]int64
}

// seeders recycles the math/rand sources NewMathRandSource reads a seeded
// register from, so seeding a stream allocates only the stream itself.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// NewMathRandSource returns the stream of rand.NewSource(seed).
//
// A seeded register starts at tap 0 and feed mrLen−mrTap, and every step
// overwrites vec[feed] with vec[feed]+vec[tap]. The feed index visits each
// word once in mrLen steps, so after mrLen draws the register holds exactly
// those draws and both indices are back where they started. Undoing the
// steps newest first recovers the seeded register, without a copy of
// math/rand's seeding table.
func NewMathRandSource(seed int64) *MathRandSource {
	src := seeders.Get().(rand.Source64)
	defer seeders.Put(src)
	src.Seed(seed)
	s := &MathRandSource{feed: mrLen - mrTap}
	tap, feed := s.tap, s.feed
	for k := 0; k < mrLen; k++ {
		tap, feed = mrPrev(tap), mrPrev(feed)
		s.vec[feed] = int64(src.Uint64())
	}
	for k := 0; k < mrLen; k++ {
		s.vec[feed] -= s.vec[tap]
		tap, feed = mrNext(tap), mrNext(feed)
	}
	return s
}

func mrPrev(i int) int {
	if i == 0 {
		return mrLen - 1
	}
	return i - 1
}

func mrNext(i int) int {
	if i == mrLen-1 {
		return 0
	}
	return i + 1
}

// next advances the register one step and returns the new word
// (rngSource.Uint64).
func (s *MathRandSource) next() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += mrLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += mrLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// uniform is Rand.Float64: a 63-bit draw over 2⁶³, drawn again on the one
// value that rounds to 1.
func (s *MathRandSource) uniform() float64 {
	for {
		if f := float64(s.next()&mrMask) / (1 << 63); f != 1 {
			return f
		}
	}
}

// mrAbs is normal.go's absInt32.
func mrAbs(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 returns the next standard-normal deviate of the stream.
func (s *MathRandSource) NormFloat64() float64 {
	// j is Rand.Uint32 of the word as an int32: bits 31..62.
	j := int32(s.next() >> 31)
	i := j & 0x7F
	x := float64(j) * float64(mrWn[i])
	if mrAbs(j) < mrKn[i] {
		return x
	}
	return s.normSlow(j, x)
}

// AddNoise adds scale·z to every element of dst, where z are the stream's
// next len(dst) deviates in order: dst[i] += z_i·scale.
func (s *MathRandSource) AddNoise(dst []float64, scale float64) {
	tap, feed := s.tap, s.feed
	for i := range dst {
		tap--
		if tap < 0 {
			tap += mrLen
		}
		feed--
		if feed < 0 {
			feed += mrLen
		}
		w := s.vec[feed] + s.vec[tap]
		s.vec[feed] = w
		j := int32(w >> 31)
		k := j & 0x7F
		z := float64(j) * float64(mrWn[k])
		if mrAbs(j) >= mrKn[k] {
			s.tap, s.feed = tap, feed
			z = s.normSlow(j, z)
			tap, feed = s.tap, s.feed
		}
		dst[i] += z * scale
	}
	s.tap, s.feed = tap, feed
}

// SkipNorm advances the stream by n deviates without producing them. A
// draw's common case is decided by its first word alone, so only a draw
// that takes the slow path evaluates its float.
func (s *MathRandSource) SkipNorm(n int) {
	tap, feed := s.tap, s.feed
	for ; n > 0; n-- {
		tap--
		if tap < 0 {
			tap += mrLen
		}
		feed--
		if feed < 0 {
			feed += mrLen
		}
		w := s.vec[feed] + s.vec[tap]
		s.vec[feed] = w
		j := int32(w >> 31)
		if k := j & 0x7F; mrAbs(j) >= mrKn[k] {
			s.tap, s.feed = tap, feed
			s.normSlow(j, float64(j)*float64(mrWn[k]))
			tap, feed = s.tap, s.feed
		}
	}
	s.tap, s.feed = tap, feed
}

// normSlow finishes a draw whose word j, with candidate x = j·wn[j&0x7F],
// fell outside its layer's inner rectangle. It is Rand.NormFloat64's loop
// from that point on, word for word: the base strip's tail for layer 0,
// with the same math.Log evaluations, a wedge test for the others (with
// the same outcome as its math.Exp comparison; see mrWedgeAccept), and a
// fresh draw after a wedge rejection.
func (s *MathRandSource) normSlow(j int32, x float64) float64 {
	for {
		i := j & 0x7F
		if i == 0 {
			for {
				x = -math.Log(s.uniform()) * (1.0 / mrR)
				y := -math.Log(s.uniform())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return mrR + x
			}
			return -mrR - x
		}
		if mrWedgeAccept(i, x, s.uniform()) {
			return x
		}
		j = int32(s.next() >> 31)
		i = j & 0x7F
		x = float64(j) * float64(mrWn[i])
		if mrAbs(j) < mrKn[i] {
			return x
		}
	}
}

// mrWedgeAccept is normal.go's wedge test for layer i's candidate x and
// uniform u,
//
//	fn[i]+float32(u)*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)),
//
// with the same result on every input, but with math.Exp evaluated only
// when a cheap bound cannot settle the comparison. The bound writes
// exp(−x²/2) = exp(−m²/2)·exp(d), d = (m−|x|)(m+|x|)/2, around the midpoint
// m of the layer's wedge, and estimates exp(d) by its degree-4 Taylor
// polynomial. The estimate is within rc·|d|⁵ + 1e−13 of the true value,
// relatively: rc covers the Taylor remainder, 1e−13 the rounding of the
// estimate, of math.Exp (under one ulp) and of −.5*x*x. math.Exp rounded to
// float32 moves by at most 2⁻²⁴ more, so a left side below the estimate by
// a relative 2⁻²² + rc·|d|⁵ is below the right side too, and one above it by
// as much is above it.
func mrWedgeAccept(i int32, x, u float64) bool {
	lhs := mrFn[i] + float32(u)*(mrFn[i-1]-mrFn[i])
	if accept, decided := mrWedgeSqueeze(i, x, lhs); decided {
		return accept
	}
	return lhs < float32(math.Exp(-.5*x*x))
}

// mrWedgeSqueeze decides lhs < float32(math.Exp(-.5*x*x)) from the bound
// alone; decided is false when lhs falls inside the bound's margin.
func mrWedgeSqueeze(i int32, x float64, lhs float32) (accept, decided bool) {
	sq := &mrSqueeze[i]
	ax := math.Abs(x)
	d := 0.5 * (sq.m - ax) * (sq.m + ax)
	est := sq.fm * (1 + d*(1+d*(1.0/2+d*(1.0/6+d*(1.0/24)))))
	d2 := d * d
	tol := mrSqueezeSlack + sq.rc*d2*d2*math.Abs(d)
	switch l := float64(lhs); {
	case l < est*(1-tol):
		return true, true
	case l > est*(1+tol):
		return false, true
	}
	return false, false
}

// mrSqueezeSlack is the bound's fixed relative margin: 2⁻²², which covers
// the float32 rounding of math.Exp (2⁻²⁴) and the estimate's 1e−13 with
// room to spare.
const mrSqueezeSlack = 0x1p-22

// mrSqueeze holds each wedge layer's bound: the midpoint m of the |x| range
// [kn[i]·wn[i], 2³¹·wn[i]], exp(−m²/2), and the Taylor remainder coefficient
// rc = e^{2D}/5!, where D bounds |d| over the range (padded). Layer 0, the
// base strip, has no wedge.
var mrSqueeze = func() (t [128]struct{ m, fm, rc float64 }) {
	for i := 1; i < 128; i++ {
		a := float64(mrKn[i]) * float64(mrWn[i])
		b := (1 << 31) * float64(mrWn[i])
		m := (a + b) / 2
		dmax := (b*b-m*m)/2 + 0.01
		t[i].m = m
		t[i].fm = math.Exp(-.5 * m * m)
		t[i].rc = math.Exp(2*dmax) / 120
	}
	return t
}()

// Ziggurat tables, copied from math/rand/normal.go.

var mrKn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var mrWn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
var mrFn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}
