package core

import (
	"context"
	"fmt"

	"murphy/internal/graph"
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// combinedPredictor blends a stale offline model with a fresh online model,
// weighting the online one by how much in-incident data it has seen. It is
// the §7 "Leveraging offline training" extension: offline training can use a
// much longer window, while online training knows the incident's pattern.
type combinedPredictor struct {
	offline, online regress.Predictor
	wOnline         float64
}

func (c *combinedPredictor) Fit([][]float64, []float64) error {
	return fmt.Errorf("core: combined predictor is assembled, not fitted")
}

func (c *combinedPredictor) Predict(x []float64) float64 {
	return c.wOnline*c.online.Predict(x) + (1-c.wOnline)*c.offline.Predict(x)
}

func (c *combinedPredictor) ResidualStd() float64 {
	// Conservative: the larger of the two (the blend cannot be more certain
	// than its sharper component on data neither has seen).
	a, b := c.offline.ResidualStd(), c.online.ResidualStd()
	if a > b {
		return a
	}
	return b
}

// TrainCombined fits two MRFs — one offline on the long window ending at
// offlineEnd (exclusive of the incident) and one online on the trailing
// window — and blends their factors with weight wOnline on the online model.
// The returned model carries the online model's current state and anomaly
// scores, so ranking and pruning reflect the incident.
func TrainCombined(db *telemetry.DB, g *graph.Graph, cfg Config, offlineEnd int, offlineWindow int, wOnline float64) (*Model, error) {
	if wOnline < 0 || wOnline > 1 {
		return nil, fmt.Errorf("core: online weight %v outside [0,1]", wOnline)
	}
	offCfg := cfg
	offCfg.TrainWindow = offlineWindow
	ctx := context.Background()
	offline, err := trainAt(ctx, db, g, offCfg, TrainOpts{Now: offlineEnd})
	if err == nil {
		err = offline.FitAll(ctx, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("core: offline half: %w", err)
	}
	online, err := TrainOpt(ctx, db, g, cfg, TrainOpts{Now: -1})
	if err == nil {
		err = online.FitAll(ctx, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("core: online half: %w", err)
	}
	for ref, of := range online.factors {
		if off, ok := offline.factors[ref]; ok && sameFeatures(of.cell, off.cell) {
			of.cell = fittedCell(of.cell.features,
				&combinedPredictor{offline: off.cell.model, online: of.cell.model, wOnline: wOnline})
		}
		// When the two halves selected different features (the topology or
		// workload changed between the windows — the very staleness §6.5.1
		// warns about), the online factor stands alone.
	}
	return online, nil
}

func sameFeatures(a, b *fitCell) bool {
	if len(a.features) != len(b.features) {
		return false
	}
	for i := range a.features {
		if a.features[i] != b.features[i] {
			return false
		}
	}
	return true
}
