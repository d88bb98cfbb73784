package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"murphy/internal/enterprise"
	"murphy/internal/graph"
	"murphy/internal/mat"
	"murphy/internal/microsim"
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// refStep/refPlan are the unpruned plan form of the original batched kernel:
// every step in global slots, with a chain vector for every slot the walk
// touches.
type refStep struct {
	out             int32
	feats           []int32
	coef, mean, std []float64
	intercept       float64
	model           regress.Predictor
	noise           float64
}

type refPlan struct {
	steps   []refStep
	touched []int32
	symSlot int32
}

// refCompile is the original compiler: every factor of every non-candidate
// path node becomes a step, live or not.
func refCompile(m *Model, path []telemetry.EntityID, symRef metricRef) *refPlan {
	slotOf := m.slots()
	p := &refPlan{symSlot: slotOf[symRef]}
	seen := make(map[int32]bool)
	touch := func(s int32) {
		if !seen[s] {
			seen[s] = true
			p.touched = append(p.touched, s)
		}
	}
	touch(p.symSlot)
	for pi, id := range path {
		if pi == 0 {
			continue
		}
		for _, name := range m.metricsOf[id] {
			ref := metricRef{id, name}
			f := m.factors[ref]
			if f == nil {
				continue
			}
			st := refStep{out: slotOf[ref], noise: f.model.ResidualStd()}
			touch(st.out)
			aliased := false
			for _, fr := range f.features {
				fs := slotOf[fr]
				st.feats = append(st.feats, fs)
				touch(fs)
				aliased = aliased || fs == st.out
			}
			if lt, ok := f.model.(linearTermer); ok && !aliased {
				if coef, mean, std, intercept, fitted := lt.LinearTerms(); fitted {
					nterms := min(len(coef), len(st.feats), len(mean), len(std))
					st.coef, st.mean, st.std = coef[:nterms], mean[:nterms], std[:nterms]
					st.intercept = intercept
					p.steps = append(p.steps, st)
					continue
				}
			}
			st.model = f.model
			p.steps = append(p.steps, st)
		}
	}
	return p
}

// refRunPass64 is the original float64 pass: global slot vectors, Fill plus
// AccumTerm per term, noise drawn for every step. It returns a copy of the
// symptom's draws.
func refRunPass64(m *Model, p *refPlan, ov *overrides, rng *rand.Rand, n int) []float64 {
	base := m.base64()
	vals := make([][]float64, m.kern.nslots)
	ensure := func(s int32) []float64 {
		if vals[s] == nil {
			vals[s] = make([]float64, n)
		}
		return vals[s]
	}
	for _, s := range p.touched {
		mat.Fill(ensure(s), base[s])
	}
	if ov != nil {
		for i, s := range ov.slots {
			mat.Fill(ensure(s), ov.vals[i])
		}
	}
	var x []float64
	for round := 0; round < m.cfg.GibbsRounds; round++ {
		for _, st := range p.steps {
			out := vals[st.out]
			if st.model != nil {
				for i := 0; i < n; i++ {
					x = x[:0]
					for _, fs := range st.feats {
						x = append(x, vals[fs][i])
					}
					v := st.model.Predict(x)
					if st.noise > 0 {
						v += rng.NormFloat64() * st.noise
					}
					out[i] = v
				}
				continue
			}
			mat.Fill(out, st.intercept)
			for j := range st.coef {
				mat.AccumTerm(out, vals[st.feats[j]], st.coef[j], st.mean[j], st.std[j])
			}
			if st.noise > 0 {
				for i := range out {
					out[i] += rng.NormFloat64() * st.noise
				}
			}
		}
	}
	return append([]float64(nil), vals[p.symSlot]...)
}

// kernelFixture is a trained model plus the symptom its plans run toward.
type kernelFixture struct {
	name string
	m    *Model
	sym  telemetry.Symptom
}

// enterpriseFixture trains on enterprise incident 2 at the daemon's stream
// shape: 8 apps, window 300, 1000 samples.
func enterpriseFixture(t testing.TB) kernelFixture {
	t.Helper()
	gen := enterprise.DefaultGenOptions()
	gen.Apps, gen.Hosts, gen.Steps = 8, 8, 320
	env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = 1000
	cfg.TrainWindow = 300
	return kernelFixture{"enterprise", trainFixture(t, env.DB, inc.Symptom, cfg, nil), inc.Symptom}
}

// contentionFixture trains on the hotel-reservation contention scenario.
func contentionFixture(t testing.TB, trainer regress.Trainer) kernelFixture {
	t.Helper()
	sc, err := microsim.Contention(microsim.DefaultContentionOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = 1000
	cfg.TrainWindow = 280
	return kernelFixture{"contention", trainFixture(t, sc.Result.DB, sc.Symptom, cfg, trainer), sc.Symptom}
}

func trainFixture(t testing.TB, db *telemetry.DB, sym telemetry.Symptom, cfg Config, trainer regress.Trainer) *Model {
	t.Helper()
	g, err := graph.Build(db, []telemetry.EntityID{sym.Entity}, -1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOpt(context.Background(), db, g, cfg, TrainOpts{Now: -1, Trainer: trainer})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// linearPredictor is a trained regressor the fused fast path can read.
type linearPredictor interface {
	regress.Predictor
	linearTermer
}

// quietFactor is a linear factor with no residual noise.
type quietFactor struct{ linearPredictor }

func (quietFactor) ResidualStd() float64 { return 0 }

// opaqueFactor hides a regressor's linear terms, forcing the generic
// per-sample fallback — how the kernel sees any non-linear Trainer.
type opaqueFactor struct{ regress.Predictor }

// mixFactors rewrites a trained model's factors so its plans carry every
// step kind: every third factor (in a fixed order) loses its noise, every
// fifth goes opaque, and every seventh reads its own target as its first
// feature (a self-aliased step). It must run before the model's first plan
// is compiled.
func mixFactors(m *Model) {
	refs := make([]metricRef, 0, len(m.factors))
	for ref := range m.factors {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].entity != refs[j].entity {
			return refs[i].entity < refs[j].entity
		}
		return refs[i].metric < refs[j].metric
	})
	for i, ref := range refs {
		f := m.factors[ref]
		switch {
		case i%7 == 3 && len(f.features) > 0:
			f.features = append([]metricRef{ref}, f.features[1:]...)
		case i%5 == 1:
			f.model = opaqueFactor{f.model}
		case i%3 == 2:
			if lp, ok := f.model.(linearPredictor); ok {
				f.model = quietFactor{lp}
			}
		}
	}
}

// planShape tallies what the pruned plans of one fixture exercise.
type planShape struct {
	plans, steps, dead, deadQuiet, fallback, aliased, terms, fixedTerms, symFixed, maxVecs int
}

func (s *planShape) add(p *pathPlan, rp *refPlan) {
	s.plans++
	s.steps += len(p.steps)
	s.maxVecs = max(s.maxVecs, len(p.vecs))
	for i, st := range p.steps {
		rs := &rp.steps[i]
		for _, fs := range rs.feats {
			if fs == rs.out {
				s.aliased++
				break
			}
		}
		if st.out < 0 {
			s.dead++
			if st.noise == 0 {
				s.deadQuiet++
			}
			continue
		}
		if st.model != nil {
			s.fallback++
		}
		s.terms += len(st.src)
		for _, src := range st.src {
			if src < 0 {
				s.fixedTerms++
			}
		}
	}
	written := false
	for _, st := range p.steps {
		written = written || st.out == p.sym
	}
	if !written {
		s.symFixed++
	}
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d draws, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: draw %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// checkPlanAgainstReference runs one plan's counterfactual and factual
// passes on the real kernel and on the reference, both the fixed-budget
// way (n draws, counterfactual then factual on one stream) and the
// early-stop way (two batches on two streams), and compares every draw.
func checkPlanAgainstReference(t *testing.T, m *Model, ar *arena, label string, plan *pathPlan, rp *refPlan, ov *overrides, seed int64) {
	t.Helper()
	ctx := context.Background()
	pass := func(ov *overrides, rng *rand.Rand, n int) []float64 {
		out, err := m.runPass64(ctx, plan, ov, rng, ar, n)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), out...)
	}
	n := m.cfg.Samples
	rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	sameBits(t, label+" counterfactual", pass(ov, rng, n), refRunPass64(m, rp, ov, ref, n))
	sameBits(t, label+" factual", pass(nil, rng, n), refRunPass64(m, rp, nil, ref, n))

	cf, cfRef := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	f, fRef := rand.New(rand.NewSource(^seed)), rand.New(rand.NewSource(^seed))
	for batch := 0; batch < 2; batch++ {
		b := earlyStopBatch
		sameBits(t, fmt.Sprintf("%s counterfactual batch %d", label, batch), pass(ov, cf, b), refRunPass64(m, rp, ov, cfRef, b))
		sameBits(t, fmt.Sprintf("%s factual batch %d", label, batch), pass(nil, f, b), refRunPass64(m, rp, nil, fRef, b))
	}
}

// TestKernelPrunedPlanMatchesReference pins the pruned float64 kernel —
// pass constants folded into scalars, dead steps reduced to their noise
// draws, plan-local chain vectors — to the original unpruned algorithm bit
// for bit, over every candidate plan of the enterprise incident-2 and
// contention fixtures, plus variants carrying opaque (non-linear),
// self-aliased and noiseless factors, and the symptom as its own candidate.
//
// The comparison is single-goroutine arithmetic; under -race, where it runs
// an order of magnitude slower, it checks every raceStride-th candidate.
func TestKernelPrunedPlanMatchesReference(t *testing.T) {
	const raceStride = 8
	opaque := func() regress.Predictor { return opaqueFactor{regress.NewRidge(DefaultConfig().Lambda)} }
	fixtures := []kernelFixture{enterpriseFixture(t), contentionFixture(t, nil)}
	mixed := enterpriseFixture(t)
	mixed.name = "enterprise-mixed"
	mixFactors(mixed.m)
	nonlinear := contentionFixture(t, opaque)
	nonlinear.name = "contention-opaque-trainer"
	fixtures = append(fixtures, mixed, nonlinear)

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			m, d := fx.m, fx.sym.Entity
			symRef := metricRef{d, fx.sym.Metric}
			ar := newArena()
			var shape planShape
			cands := append(m.Candidates(d), d)
			for ci, a := range cands {
				path := m.paths.ShortestPathSubgraph(a, d)
				if path == nil || (raceEnabled && ci%raceStride != 0 && a != d) {
					continue
				}
				ov := m.counterfactualOverrides(a)
				if a == d || ov == nil {
					// Pin the candidate itself one unit off its current value.
					slot := m.slots()[metricRef{a, m.metricsOf[a][0]}]
					if a == d {
						slot = m.slots()[symRef]
					}
					ov = &overrides{slots: []int32{slot}, vals: []float64{m.base64()[slot] + 1}}
				}
				plan := m.compilePlan(path, symRef)
				rp := refCompile(m, path, symRef)
				shape.add(plan, rp)
				checkPlanAgainstReference(t, m, ar, fmt.Sprintf("candidate %s", a), plan, rp, ov, m.pairSeed(a, d))
			}
			t.Logf("%+v", shape)
			if shape.symFixed != 1 {
				t.Errorf("the symptom-as-candidate plan should leave the symptom unwritten: %+v", shape)
			}
			switch fx.name {
			case "enterprise":
				if shape.dead == 0 || shape.fixedTerms == 0 {
					t.Errorf("the enterprise plans should carry dead steps and pass-constant terms: %+v", shape)
				}
			case "enterprise-mixed":
				if shape.deadQuiet == 0 || shape.fallback == 0 || shape.aliased == 0 {
					t.Errorf("the mixed plans should carry noiseless dead steps, fallback steps and self-aliased steps: %+v", shape)
				}
			case "contention-opaque-trainer":
				if shape.fallback == 0 {
					t.Errorf("an opaque trainer should compile to fallback steps: %+v", shape)
				}
			}
		})
	}
}

// TestKernelArenaFootprint bounds the kernel's memory: after a diagnosis on
// two workers, no arena's chain table may exceed the largest plan's vector
// count (it used to grow to the model's slot count), and a warm serial
// diagnosis must allocate less than the 2.25 MB the unpruned kernel did.
func TestKernelArenaFootprint(t *testing.T) {
	fx := enterpriseFixture(t)
	m := fx.m
	var mu sync.Mutex
	var arenas []*arena
	m.arenas.p.New = func() any {
		a := newArena()
		mu.Lock()
		arenas = append(arenas, a)
		mu.Unlock()
		return a
	}
	if _, err := m.DiagnoseContext(context.Background(), fx.sym, 2); err != nil {
		t.Fatal(err)
	}
	maxVecs := 0
	m.kern.mu.RLock()
	for _, p := range m.kern.plans {
		maxVecs = max(maxVecs, len(p.vecs))
	}
	plans := len(m.kern.plans)
	m.kern.mu.RUnlock()
	if plans == 0 || maxVecs >= m.kern.nslots {
		t.Fatalf("%d plans, largest %d vectors of %d slots", plans, maxVecs, m.kern.nslots)
	}
	mu.Lock()
	for i, a := range arenas {
		if len(a.vals64) > maxVecs {
			t.Errorf("arena %d holds %d chain vectors; the largest plan needs %d (%d slots)", i, len(a.vals64), maxVecs, m.kern.nslots)
		}
	}
	mu.Unlock()
	t.Logf("%d plans, largest %d chain vectors of %d slots, %d arenas", plans, maxVecs, m.kern.nslots, len(arenas))

	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts on purpose; the budget is checked without -race")
	}
	const budget = 2_250_000
	const diagnoses = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < diagnoses; i++ {
		if _, err := m.Diagnose(fx.sym); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / diagnoses
	msg := fmt.Sprintf("serial enterprise diagnosis allocates %.2f MB", float64(per)/1e6)
	if per >= budget {
		t.Fatalf("%s; budget %.2f MB", msg, float64(budget)/1e6)
	}
	t.Log(msg)
}
