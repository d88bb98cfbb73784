package core

import "sync"

// arena is the per-candidate scratch space of the batched Gibbs kernel. The
// sampler's state — one vector of n parallel chain values per plan-local
// chain vector (see pathPlan.vecs), plus one scalar per pass constant —
// lives in flat slices, next to the counterfactual draw buffer of the
// fixed-budget test and the float32 path's widening scratch. Every pass
// eagerly re-fills its plan's vectors from the start state, so buffers never
// need clearing between passes, batches, or candidates; they just get reused
// at whatever capacity they last grew to. The chain table grows to the
// largest plan the arena has run, not to the model's slot count.
//
// An arena is single-goroutine scratch; parallel diagnosis workers each take
// their own from the model's pool.
type arena struct {
	vals64 [][]float64
	vals32 [][]float32
	// fixed64/fixed32 hold the pass constants' values.
	fixed64 []float64
	fixed32 []float32
	// x is the per-sample feature gather buffer of generic (non-fused) steps.
	x []float64
	// cf holds the counterfactual draws of the fixed-budget test while the
	// factual pass reuses the vectors.
	cf []float64
	// conv is the float64 view of a float32 pass's symptom draws.
	conv []float64
}

func newArena() *arena { return &arena{} }

// chainVecs returns k chain vectors of length n from *tab, growing the
// table and its vectors as needed.
func chainVecs[T float32 | float64](tab *[][]T, k, n int) [][]T {
	if len(*tab) < k {
		nv := make([][]T, k)
		copy(nv, *tab)
		*tab = nv
	}
	v := (*tab)[:k]
	for i := range v {
		v[i] = sized(&v[i], n)
	}
	return v
}

// sized returns *buf resized to n, reallocating it when it is too small.
func sized[T float32 | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// arenaPool hands out arenas to candidate evaluations; it is shared (by
// pointer) between a model and its Rebind copies, which is safe because an
// arena carries no model state.
type arenaPool struct{ p sync.Pool }

func newArenaPool() *arenaPool {
	return &arenaPool{p: sync.Pool{New: func() any { return newArena() }}}
}

func (ap *arenaPool) get() *arena  { return ap.p.Get().(*arena) }
func (ap *arenaPool) put(a *arena) { ap.p.Put(a) }
