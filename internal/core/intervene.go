package core

import (
	"sort"

	"murphy/internal/telemetry"
)

// PredictUnderIntervention implements the Appendix A.2 protocol: given
// overridden metric values for a set of source entities, resample the union
// of the shortest-path subgraphs from each source to the target for `rounds`
// Gibbs passes (deterministically: mean predictions, no noise) and return
// the resulting value of the target metric. Source entities are pinned to
// their overridden values; every other entity starts from its current value.
// ok is false when no source can reach the target. The factors it
// propagates through are fitted first if nothing has yet; err is a failed
// fit.
//
// This is the subroutine behind Fig 8b: more rounds propagate effects across
// cycles further, so prediction accuracy through a cyclic region improves
// with rounds exactly when cyclic influence is real.
func (m *Model) PredictUnderIntervention(overrides map[telemetry.EntityID]map[string]float64, target telemetry.EntityID, targetMetric string, rounds int) (float64, bool, error) {
	if rounds <= 0 {
		rounds = m.cfg.GibbsRounds
	}
	// Union of shortest-path subgraphs with each node's minimum distance
	// from any source.
	dist := make(map[telemetry.EntityID]int)
	pinned := make(map[telemetry.EntityID]bool, len(overrides))
	reached := false
	for src := range overrides {
		pinned[src] = true
		path := m.paths.ShortestPathSubgraph(src, target)
		if path == nil {
			continue
		}
		reached = true
		for d, id := range path {
			if old, ok := dist[id]; !ok || d < old {
				dist[id] = d
			}
		}
	}
	if !reached {
		return 0, false, nil
	}
	order := make([]telemetry.EntityID, 0, len(dist))
	for id := range dist {
		if !pinned[id] {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if dist[order[i]] != dist[order[j]] {
			return dist[order[i]] < dist[order[j]]
		}
		return order[i] < order[j]
	})
	// Build the start state.
	state := make(map[metricRef]float64, len(m.current))
	for k, v := range m.current {
		state[k] = v
	}
	for src, metrics := range overrides {
		for metric, v := range metrics {
			state[metricRef{src, metric}] = v
		}
	}
	// Deterministic resampling passes.
	for r := 0; r < rounds; r++ {
		for _, id := range order {
			for _, name := range m.metricsOf[id] {
				ref := metricRef{id, name}
				f := m.factors[ref]
				if f == nil {
					continue
				}
				c, err := f.fitted()
				if err != nil {
					return 0, false, err
				}
				state[ref] = c.model.Predict(featureVector(c, state))
			}
		}
	}
	return state[metricRef{target, targetMetric}], true, nil
}
