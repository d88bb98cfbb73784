package core

import (
	"context"
	"math"
	"testing"

	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

func TestPredictUnderInterventionPropagates(t *testing.T) {
	_, m := trainChain(t)
	// Lowering the client's RPS to its historical quiet level should lower
	// the predicted backend CPU well below its current (incident) value.
	quiet := 50.0
	pred, ok, err := m.PredictUnderIntervention(
		map[telemetry.EntityID]map[string]float64{
			"client": {telemetry.MetricRPS: quiet},
		},
		"back", telemetry.MetricCPU, 4)
	if err != nil || !ok {
		t.Fatalf("client should reach back (err %v)", err)
	}
	cur := m.CurrentValue("back", telemetry.MetricCPU)
	if pred >= cur-10 {
		t.Fatalf("intervention should lower backend CPU: pred %v vs current %v", pred, cur)
	}
	// The fully converged value would be backCPU ≈ ((50*1.5)*0.2+5)*1.2+3 =
	// 24; with bidirectional edges the Gibbs passes converge only partially
	// (the paper's own caveat in §4.2), so require movement most of the way.
	if pred < 10 || pred > (cur+24)/2 {
		t.Fatalf("prediction %v not between ~24 and halfway to current %v", pred, cur)
	}
	// More rounds must not move the prediction away from the true value —
	// the Fig 8b property that motivates W > 1.
	pred1, _, _ := m.PredictUnderIntervention(
		map[telemetry.EntityID]map[string]float64{"client": {telemetry.MetricRPS: quiet}},
		"back", telemetry.MetricCPU, 1)
	pred8, _, _ := m.PredictUnderIntervention(
		map[telemetry.EntityID]map[string]float64{"client": {telemetry.MetricRPS: quiet}},
		"back", telemetry.MetricCPU, 8)
	if math.Abs(pred8-24) > math.Abs(pred1-24)+1e-9 {
		t.Fatalf("more rounds should converge toward truth: 1 round %v, 8 rounds %v", pred1, pred8)
	}
}

func TestPredictUnderInterventionDeterministic(t *testing.T) {
	_, m := trainChain(t)
	ov := map[telemetry.EntityID]map[string]float64{"client": {telemetry.MetricRPS: 60}}
	a, _, _ := m.PredictUnderIntervention(ov, "back", telemetry.MetricCPU, 4)
	b, _, _ := m.PredictUnderIntervention(ov, "back", telemetry.MetricCPU, 4)
	if a != b {
		t.Fatal("intervention prediction must be deterministic")
	}
}

func TestPredictUnderInterventionUnreachable(t *testing.T) {
	db := chainDB(t, 220, 5, 9)
	if err := db.AddEntity(&telemetry.Entity{ID: "island", Type: telemetry.TypeVM, Name: "i"}); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 220; tt++ {
		if err := db.Observe("island", telemetry.MetricCPU, tt, 10); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := graph.Build(db, []telemetry.EntityID{"back", "island"}, -1)
	m, err := TrainOpt(context.Background(), db, g, testConfig(), TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.PredictUnderIntervention(
		map[telemetry.EntityID]map[string]float64{"island": {telemetry.MetricCPU: 5}},
		"back", telemetry.MetricCPU, 2); ok {
		t.Fatal("unreachable source should report !ok")
	}
}

func TestPredictUnderInterventionDefaultRounds(t *testing.T) {
	_, m := trainChain(t)
	ov := map[telemetry.EntityID]map[string]float64{"client": {telemetry.MetricRPS: 60}}
	a, ok, _ := m.PredictUnderIntervention(ov, "back", telemetry.MetricCPU, 0)
	if !ok {
		t.Fatal("should reach")
	}
	b, _, _ := m.PredictUnderIntervention(ov, "back", telemetry.MetricCPU, m.Config().GibbsRounds)
	if a != b {
		t.Fatal("rounds=0 should default to configured Gibbs rounds")
	}
}
