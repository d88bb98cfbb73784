// Package harness regenerates every table and figure of the paper's
// evaluation (§6) on the emulated environments: one runner per experiment,
// each returning a structured result whose String() prints the same rows or
// series the paper reports. The benchmarks in the repository root and the
// murphybench CLI are thin wrappers around these runners.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"murphy/internal/core"
	"murphy/internal/explainit"
	"murphy/internal/graph"
	"murphy/internal/microsim"
	"murphy/internal/netmedic"
	"murphy/internal/telemetry"
)

// Scheme names used in result rows.
const (
	SchemeMurphy    = "Murphy"
	SchemeSage      = "Sage"
	SchemeNetMedic  = "NetMedic"
	SchemeExplainIt = "ExplainIT"
)

// Schemes is the fixed comparison order used in all printed results.
var Schemes = []string{SchemeMurphy, SchemeSage, SchemeNetMedic, SchemeExplainIt}

// murphyConfig returns the Murphy configuration used across experiments;
// samples is reduced from the paper's 5000 to keep harness runs fast — the
// code path is identical and the t-test remains well-powered.
func murphyConfig(samples, trainWindow int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Samples = samples
	cfg.TrainWindow = trainWindow
	return cfg
}

// schemeRankings runs all four schemes on one microsim scenario and returns
// each scheme's ranked root-cause list. Every scheme receives the same
// pruned candidate search space (§4.2). Sage receives the scenario's causal
// call DAG; when the true cause lies outside it, Sage simply cannot rank it.
func schemeRankings(sc *microsim.Scenario, cfg core.Config) (map[string][]telemetry.EntityID, error) {
	db := sc.Result.DB
	out := make(map[string][]telemetry.EntityID, 4)

	g, err := graph.Build(db, []telemetry.EntityID{sc.Symptom.Entity}, -1)
	if err != nil {
		return nil, fmt.Errorf("harness: build graph: %w", err)
	}
	model, err := core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: -1})
	if err != nil {
		return nil, fmt.Errorf("harness: train murphy: %w", err)
	}
	diag, err := model.Diagnose(sc.Symptom)
	if err != nil {
		return nil, fmt.Errorf("harness: murphy diagnose: %w", err)
	}
	out[SchemeMurphy] = diag.Ranked()
	candidates := diag.Candidates

	// ExplainIt.
	eiCfg := explainit.DefaultConfig()
	eiCfg.Window = cfg.TrainWindow
	ei, err := explainit.Diagnose(db, sc.Symptom, candidates, eiCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: explainit: %w", err)
	}
	out[SchemeExplainIt] = explainit.RankedIDs(ei)

	// NetMedic.
	nmCfg := netmedic.DefaultConfig()
	nmCfg.Window = cfg.TrainWindow
	nm, err := netmedic.Diagnose(db, g, sc.Symptom, candidates, nmCfg)
	if err != nil {
		return nil, fmt.Errorf("harness: netmedic: %w", err)
	}
	out[SchemeNetMedic] = netmedic.RankedIDs(nm)

	// Sage: DAG-only view of the same telemetry.
	out[SchemeSage] = sageRanking(db, sc, cfg, candidates)
	return out, nil
}

// sageRanking trains Sage on the scenario's call DAG and ranks the
// candidates; see dagRanking for the unusable-environment semantics.
func sageRanking(db *telemetry.DB, sc *microsim.Scenario, cfg core.Config, candidates []telemetry.EntityID) []telemetry.EntityID {
	return dagRanking(db, sc.CallDAG, sc.Symptom, cfg.TrainWindow, candidates)
}

// fmtCurve renders a K→accuracy curve as "K=1:0.75 K=5:0.86 ...".
func fmtCurve(curve map[int]float64) string {
	ks := make([]int, 0, len(curve))
	for k := range curve {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	parts := make([]string, 0, len(ks))
	for _, k := range ks {
		parts = append(parts, fmt.Sprintf("K=%d:%.2f", k, curve[k]))
	}
	return strings.Join(parts, " ")
}
