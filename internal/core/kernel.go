// The batched Gibbs sampling kernel. The original resampler walked the
// shortest-path subgraph per sample with a map lookup and an interface call
// per (factor, feature, sample) triple; this kernel compiles the walk once
// per (candidate, symptom) pair into a flat execution plan — per-step feature
// source tables over plan-local chain vectors, and the trained regression
// terms as contiguous slices — and then applies each factor across the whole
// chain vector at a time with the helpers in internal/mat.
//
// The plan keeps only the arithmetic that can reach the symptom draws:
//
//   - A slot no step of the plan writes (an off-path neighbour, the pinned
//     candidate) holds one value for every chain during a pass, so it gets no
//     chain vector: its terms are computed once per step as a scalar.
//   - A step whose output never reaches the symptom slot, directly or through
//     other steps, is dead. It does no arithmetic, but still consumes exactly
//     the noise draws it used to, so every live step's draws stay in place.
//   - The slots live steps write are numbered 0..k−1 per plan, so an arena
//     holds k chain vectors, not one per slot of the model.
//
// Two arithmetic widths share the plan. The float64 path reproduces the
// original per-sample sampler bit-for-bit: math/rand noise streams consumed
// in the same order, and the term arithmetic c·(x−mean)/std applied in
// Ridge.Predict's exact operation order (mat.AccumTerm, or the same scalar
// expression for a pass-constant feature, added in the same position). The
// float32 fast path folds each term to one multiply-add (w = c/std, means
// and pass-constant terms folded into the step's bias) and swaps the noise
// source for the ziggurat in internal/stats — a different, faster stream,
// validated against float64 by the metamorph invariants rather than
// bit-compared.

package core

import (
	"context"
	"math/rand"
	"sync"

	"murphy/internal/mat"
	"murphy/internal/obs"
	"murphy/internal/regress"
	"murphy/internal/stats"
	"murphy/internal/telemetry"
)

// kernelTables holds the sampling kernel's compiled artifacts: the global
// metricRef → slot table and the per-(candidate, symptom) plan cache. One
// instance is shared (by pointer) across a model and its Rebind copies —
// both tables depend only on factor topology and trained weights, which
// Rebind preserves (factor value-copies share the trained model pointers).
type kernelTables struct {
	once   sync.Once
	slotOf map[metricRef]int32
	nslots int

	mu    sync.RWMutex
	plans map[planKey]*pathPlan
}

func newKernelTables() *kernelTables {
	return &kernelTables{plans: make(map[planKey]*pathPlan)}
}

// planKey identifies one compiled plan: the candidate, the symptom entity,
// and the symptom metric (the path is a pure function of the first two via
// the subgraph cache).
type planKey struct {
	a, d   telemetry.EntityID
	metric string
}

// planStep is one factor application of a resampling round: read the
// feature sources, predict, add noise, write the output vector. A dead step
// (out < 0) only draws its noise.
type planStep struct {
	out int32
	// src[j] is feature j's source: a plan-local chain vector (≥ 0), or ^i
	// for the plan's pass constant i (a slot no live step writes, other
	// than the symptom's).
	src []int32
	// Linear fast path (model == nil): the standardized ridge terms, aliasing
	// the trained model's slices. Applied in feature order so the arithmetic
	// stays bit-identical to Ridge.Predict; the first lead terms read pass
	// constants and fold into the fill value.
	coef, mean, std []float64
	intercept       float64
	lead            int
	// Folded float32 form: w32[j] = coef/std of chain-vector feature
	// vsrc[j], and fw32[j] likewise for pass constant fsrc[j]. The means
	// fold into bias32 at compile time and the pass-constant terms into the
	// bias each round, so the float32 kernel does one multiply-add per
	// chain-vector feature.
	vsrc   []int32
	w32    []float32
	fsrc   []int32
	fw32   []float32
	bias32 float32
	// model is the generic per-sample fallback: non-linear regressors, an
	// untrained factor, or a factor whose target aliases one of its own
	// features (where the batched form would break read-after-write order).
	// A dead step keeps it only to know how it drew its noise: per sample
	// from the ziggurat, or in bulk from the float32 noise table.
	model   regress.Predictor
	noise   float64
	noise32 float32
}

// pathPlan is the compiled resampling walk for one (candidate, symptom)
// pair: one round's steps in the original path iteration order (candidate
// node excluded — its perturbed state is pinned), the global slot each
// plan-local chain vector and pass constant starts from, and the symptom's
// chain vector.
type pathPlan struct {
	steps []planStep
	// vecs[k] is the global slot chain vector k starts from. The first
	// entries are the slots live steps write; the symptom slot is appended
	// as a filled, never-written vector when no live step writes it (the
	// candidate is the symptom).
	vecs []int32
	// fixed[i] is the global slot of pass constant i.
	fixed []int32
	sym   int32
}

// linearTermer is the regressor interface of the fused fast path.
type linearTermer interface {
	LinearTerms() (coef, mean, std []float64, intercept float64, ok bool)
}

// slots builds (once) the metricRef → slot table covering every factor
// target and feature, and returns it.
func (m *Model) slots() map[metricRef]int32 {
	kt := m.kern
	kt.once.Do(func() {
		slotOf := make(map[metricRef]int32)
		add := func(r metricRef) {
			if _, ok := slotOf[r]; !ok {
				slotOf[r] = int32(len(slotOf))
			}
		}
		for ref, f := range m.factors {
			add(ref)
			for _, fr := range f.features {
				add(fr)
			}
		}
		kt.slotOf = slotOf
		kt.nslots = len(slotOf)
	})
	return kt.slotOf
}

// slotBase caches a model's start state (`current`) as a slot-indexed flat
// vector, built lazily on first use. Per-model, never shared: Rebind
// changes `current`, so each copy gets a fresh one.
type slotBase struct {
	once sync.Once
	v    []float64
}

func (m *Model) base64() []float64 {
	b := m.base
	b.once.Do(func() {
		slotOf := m.slots()
		v := make([]float64, m.kern.nslots)
		for ref, s := range slotOf {
			v[s] = m.current[ref]
		}
		b.v = v
	})
	return b.v
}

// overrides is one candidate's counterfactual start state as a sparse
// slot → value list. The sampler used to copy the entire current-state map
// per candidate just to move a handful of entries; the override list
// replaces the copy with the moved entries alone, applied on top of the
// model's flat base vector at pass start.
type overrides struct {
	slots []int32
	vals  []float64
}

// start returns slot s's start value: its override (the last, if listed
// twice) or base[s]. ov may be nil, the factual start.
func (ov *overrides) start(base []float64, s int32) float64 {
	if ov != nil {
		for i := len(ov.slots) - 1; i >= 0; i-- {
			if ov.slots[i] == s {
				return ov.vals[i]
			}
		}
	}
	return base[s]
}

// planFor returns the compiled plan for one (candidate, symptom) pair,
// compiling and caching it on first use. Candidates re-tested across
// diagnoses (and Rebind copies) skip the per-ref map walks entirely.
func (m *Model) planFor(a telemetry.EntityID, symRef metricRef, path []telemetry.EntityID) *pathPlan {
	kt := m.kern
	key := planKey{a, symRef.entity, symRef.metric}
	kt.mu.RLock()
	p := kt.plans[key]
	kt.mu.RUnlock()
	if p != nil {
		return p
	}
	p = m.compilePlan(path, symRef)
	kt.mu.Lock()
	if prev, ok := kt.plans[key]; ok {
		p = prev // lost the compile race; keep the canonical plan
	} else {
		kt.plans[key] = p
	}
	kt.mu.Unlock()
	return p
}

// compilePlan flattens one resampling walk: for every factor of every
// non-candidate node on the path (in the original iteration order), resolve
// the output and feature slots and extract the regression terms when the
// trained model exposes them. It then keeps the arithmetic only of the
// steps that reach the symptom slot, numbers the slots they write as
// plan-local chain vectors, and turns every other slot they read into a
// pass constant.
func (m *Model) compilePlan(path []telemetry.EntityID, symRef metricRef) *pathPlan {
	slotOf := m.slots()
	symSlot := slotOf[symRef]
	nsteps := 0 // an upper bound: factors of the non-candidate path nodes
	for _, id := range path[1:] {
		nsteps += len(m.metricsOf[id])
	}
	p := &pathPlan{steps: make([]planStep, 0, nsteps)}
	// First pass: the steps in global slots (out and src).
	for pi, id := range path {
		if pi == 0 {
			continue // the candidate's perturbed state is held fixed
		}
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			f := m.factors[ref]
			if f == nil {
				continue
			}
			st := planStep{out: slotOf[ref], model: f.model, noise: f.model.ResidualStd()}
			st.noise32 = float32(st.noise)
			aliased := false
			st.src = make([]int32, len(f.features))
			for j, fr := range f.features {
				st.src[j] = slotOf[fr]
				aliased = aliased || st.src[j] == st.out
			}
			if lt, ok := f.model.(linearTermer); ok && !aliased {
				if coef, mean, std, intercept, fitted := lt.LinearTerms(); fitted {
					// Predict evaluates min(len(coef), len(x)) terms; mirror
					// that prefix truncation (coef may even be nil for an
					// intercept-only factor).
					nterms := min(len(coef), len(st.src), len(mean), len(std))
					st.src = st.src[:nterms]
					st.coef, st.mean, st.std = coef[:nterms], mean[:nterms], std[:nterms]
					st.intercept = intercept
					st.model = nil
				}
			}
			p.steps = append(p.steps, st)
		}
	}

	// Second pass: plan-local sources for the live steps. srcOf maps a
	// global slot to its chain vector, or to ^i for pass constant i.
	live := liveSteps(p.steps, symSlot)
	srcOf := make(map[int32]int32)
	vec := func(s int32) {
		if _, ok := srcOf[s]; !ok {
			srcOf[s] = int32(len(p.vecs))
			p.vecs = append(p.vecs, s)
		}
	}
	for i := range p.steps {
		if live[i] {
			vec(p.steps[i].out)
		}
	}
	vec(symSlot) // a no-op unless the candidate is the symptom
	p.sym = srcOf[symSlot]
	for i := range p.steps {
		st := &p.steps[i]
		if !live[i] {
			st.out, st.src, st.coef, st.mean, st.std = -1, nil, nil, nil, nil
			continue
		}
		st.out = srcOf[st.out]
		for j, s := range st.src {
			k, ok := srcOf[s]
			if !ok {
				k = ^int32(len(p.fixed))
				srcOf[s] = k
				p.fixed = append(p.fixed, s)
			}
			st.src[j] = k
		}
		if st.model == nil {
			for st.lead < len(st.src) && st.src[st.lead] < 0 {
				st.lead++
			}
			if m.cfg.Sampler.Precision == PrecisionFloat32 {
				st.fold32()
			}
		}
	}
	return p
}

// liveSteps marks the steps whose output reaches the symptom slot: a
// fixpoint backwards from sym over the slots the steps write and read (in
// global slots). Rounds repeat the step list, so a step is live when any
// live step reads its output, earlier or later in the round; the sweeps
// repeat until one marks nothing new.
func liveSteps(steps []planStep, sym int32) []bool {
	live := make([]bool, len(steps))
	needed := map[int32]bool{sym: true}
	for changed := true; changed; {
		changed = false
		for i := len(steps) - 1; i >= 0; i-- {
			if st := &steps[i]; !live[i] && needed[st.out] {
				live[i], changed = true, true
				for _, s := range st.src {
					needed[s] = true
				}
			}
		}
	}
	return live
}

// fold32 derives a live linear step's float32 form from its terms and
// plan-local sources. Only float32 models need it; the precision is fixed
// per model, and so per plan cache.
func (st *planStep) fold32() {
	bias := st.intercept
	for j, s := range st.src {
		w := float32(st.coef[j] / st.std[j])
		bias -= st.coef[j] * st.mean[j] / st.std[j]
		if s >= 0 {
			st.vsrc = append(st.vsrc, s)
			st.w32 = append(st.w32, w)
		} else {
			st.fsrc = append(st.fsrc, ^s)
			st.fw32 = append(st.fw32, w)
		}
	}
	st.bias32 = float32(bias)
}

// noiseStream is one sampling stream's noise source; exactly one field is
// non-nil. The float64 kernel keeps *rand.Rand so its draw stream is
// bit-identical to the original sampler's; the float32 kernel uses the
// ziggurat source.
type noiseStream struct {
	r *rand.Rand
	z *stats.NormSource
}

// newStream seeds one noise stream at the configured precision.
func (m *Model) newStream(seed int64) noiseStream {
	if m.cfg.Sampler.Precision == PrecisionFloat32 {
		return noiseStream{z: stats.NewNormSource(seed)}
	}
	return noiseStream{r: rand.New(rand.NewSource(seed))}
}

// runPass runs one resampling pass of n draws — every chain vector through
// cfg.GibbsRounds rounds of the plan's steps — starting from the model's
// current state with ov's overrides applied (ov == nil is the factual
// start). It returns the symptom metric's n draws as float64s regardless of
// kernel precision (the float32 path widens into arena scratch); the slice
// is arena-owned and valid until the arena's next pass.
func (m *Model) runPass(ctx context.Context, plan *pathPlan, ov *overrides, ns noiseStream, ar *arena, n int) ([]float64, error) {
	if m.cfg.Sampler.Precision == PrecisionFloat32 {
		out32, err := m.runPass32(ctx, plan, ov, ns.z, ar, n)
		if err != nil {
			return nil, err
		}
		conv := sized(&ar.conv, n)
		mat.Widen(conv, out32)
		return conv, nil
	}
	return m.runPass64(ctx, plan, ov, ns.r, ar, n)
}

func (m *Model) runPass64(ctx context.Context, plan *pathPlan, ov *overrides, rng *rand.Rand, ar *arena, n int) ([]float64, error) {
	base := m.base64()
	vals := chainVecs(&ar.vals64, len(plan.vecs), n)
	for k, s := range plan.vecs {
		mat.Fill(vals[k], ov.start(base, s))
	}
	fv := sized(&ar.fixed64, len(plan.fixed))
	for i, s := range plan.fixed {
		fv[i] = ov.start(base, s)
	}
	x := ar.x[:0]
	defer func() { ar.x = x[:0] }()
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for si := range plan.steps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			st := &plan.steps[si]
			if st.out < 0 {
				// Dead: the output never reaches the symptom, but the draws
				// stay so every live step's noise lands where it did.
				if st.noise > 0 {
					for i := 0; i < n; i++ {
						rng.NormFloat64()
					}
				}
				continue
			}
			out := vals[st.out]
			if st.model != nil {
				// Generic fallback: the original per-sample loop, noise
				// drawn inline so the RNG stream order is preserved.
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, s := range st.src {
						if s >= 0 {
							x = append(x, vals[s][i])
						} else {
							x = append(x, fv[^s])
						}
					}
					v := st.model.Predict(x)
					if st.noise > 0 {
						v += rng.NormFloat64() * st.noise
					}
					out[i] = v
				}
				continue
			}
			// Per element this is Ridge.Predict's sum: the intercept, then
			// every term in feature order. Leading pass-constant terms fold
			// into the fill value, which the first chain-vector term is
			// written on top of; a later pass constant is one add per chain.
			fill := st.intercept
			j := 0
			for ; j < st.lead; j++ {
				fill += st.coef[j] * (fv[^st.src[j]] - st.mean[j]) / st.std[j]
			}
			if j == len(st.src) {
				mat.Fill(out, fill)
			} else {
				mat.SetTerm(out, vals[st.src[j]], fill, st.coef[j], st.mean[j], st.std[j])
				j++
			}
			for ; j < len(st.src); j++ {
				if s := st.src[j]; s >= 0 {
					mat.AccumTerm(out, vals[s], st.coef[j], st.mean[j], st.std[j])
				} else {
					mat.AddConst(out, st.coef[j]*(fv[^s]-st.mean[j])/st.std[j])
				}
			}
			if st.noise > 0 {
				// Batched after the fused accumulation: predictions consume
				// no randomness, so draw i still lands on sample i — the
				// same stream assignment as the per-sample loop.
				for i := range out {
					out[i] += rng.NormFloat64() * st.noise
				}
			}
		}
	}
	m.obs.Add(obs.CtrGibbsSamples, int64(n))
	return vals[plan.sym], nil
}

func (m *Model) runPass32(ctx context.Context, plan *pathPlan, ov *overrides, zs *stats.NormSource, ar *arena, n int) ([]float32, error) {
	base := m.base64()
	vals := chainVecs(&ar.vals32, len(plan.vecs), n)
	for k, s := range plan.vecs {
		mat.Fill32(vals[k], float32(ov.start(base, s)))
	}
	fv := sized(&ar.fixed32, len(plan.fixed))
	for i, s := range plan.fixed {
		fv[i] = float32(ov.start(base, s))
	}
	x := ar.x[:0]
	defer func() { ar.x = x[:0] }()
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for si := range plan.steps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			st := &plan.steps[si]
			if st.out < 0 {
				if st.noise32 > 0 {
					if st.model != nil {
						for i := 0; i < n; i++ {
							zs.NormFloat64()
						}
					} else {
						zs.SkipNoise32(n)
					}
				}
				continue
			}
			out := vals[st.out]
			if st.model != nil {
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, s := range st.src {
						if s >= 0 {
							x = append(x, float64(vals[s][i]))
						} else {
							x = append(x, float64(fv[^s]))
						}
					}
					v := float32(st.model.Predict(x))
					if st.noise32 > 0 {
						v += float32(zs.NormFloat64()) * st.noise32
					}
					out[i] = v
				}
				continue
			}
			bias := st.bias32
			for j, i := range st.fsrc {
				bias += st.fw32[j] * fv[i]
			}
			// Apply the folded chain-vector terms in blocks of four: the
			// first block fuses the bias fill, later blocks quarter the dst
			// traffic, and a scalar tail covers the remainder.
			nf := len(st.w32)
			j := 0
			if nf >= 4 {
				mat.Lincomb32x4(out,
					vals[st.vsrc[0]], vals[st.vsrc[1]], vals[st.vsrc[2]], vals[st.vsrc[3]],
					st.w32[0], st.w32[1], st.w32[2], st.w32[3], bias)
				j = 4
				for ; j+4 <= nf; j += 4 {
					mat.AddScaled32x4(out,
						vals[st.vsrc[j]], vals[st.vsrc[j+1]], vals[st.vsrc[j+2]], vals[st.vsrc[j+3]],
						st.w32[j], st.w32[j+1], st.w32[j+2], st.w32[j+3])
				}
			} else {
				mat.Fill32(out, bias)
			}
			for ; j < nf; j++ {
				mat.AddScaled32(out, vals[st.vsrc[j]], st.w32[j])
			}
			if st.noise32 > 0 {
				zs.AddNoise32(out, st.noise32)
			}
		}
	}
	m.obs.Add(obs.CtrGibbsSamples, int64(n))
	return vals[plan.sym], nil
}
