package explain

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"murphy/internal/core"
	"murphy/internal/graph"
	"murphy/internal/telemetry"
)

// crawlerDB reproduces the Figure 1 incident shape: a crawler client sends a
// heavy-hitter flow to a front-end VM, which fans out to a backend VM whose
// CPU saturates.
func crawlerDB(t *testing.T) (*telemetry.DB, *graph.Graph, *core.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	db := telemetry.NewDB(600)
	for _, e := range []*telemetry.Entity{
		{ID: "crawler", Type: telemetry.TypeVM, Name: "crawler"},
		{ID: "flow1", Type: telemetry.TypeFlow, Name: "crawler->front"},
		{ID: "front", Type: telemetry.TypeVM, Name: "front"},
		{ID: "flow2", Type: telemetry.TypeFlow, Name: "front->back"},
		{ID: "back", Type: telemetry.TypeVM, Name: "back"},
		{ID: "bystander", Type: telemetry.TypeVM, Name: "bystander"},
	} {
		if err := db.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range [][2]telemetry.EntityID{
		{"crawler", "flow1"}, {"flow1", "front"}, {"front", "flow2"},
		{"flow2", "back"}, {"bystander", "back"},
	} {
		if err := db.Associate(p[0], p[1], telemetry.Bidirectional); err != nil {
			t.Fatal(err)
		}
	}
	total := 120
	for tt := 0; tt < total; tt++ {
		spike := 0.0
		if tt >= total-4 {
			spike = 1
		}
		obs := func(id telemetry.EntityID, m string, v float64) {
			t.Helper()
			if err := db.Observe(id, m, tt, v); err != nil {
				t.Fatal(err)
			}
		}
		obs("crawler", telemetry.MetricNetTx, 100+spike*900+rng.NormFloat64()*5)
		obs("flow1", telemetry.MetricSessions, 10+spike*200+rng.NormFloat64())
		obs("flow1", telemetry.MetricThroughput, 1e6+spike*5e9+rng.NormFloat64()*1e5)
		obs("front", telemetry.MetricCPU, 0.10+spike*0.5+rng.NormFloat64()*0.01)
		obs("flow2", telemetry.MetricSessions, 8+spike*150+rng.NormFloat64())
		obs("back", telemetry.MetricCPU, 0.12+spike*0.7+rng.NormFloat64()*0.01)
		obs("bystander", telemetry.MetricCPU, 0.1+rng.NormFloat64()*0.01)
	}
	g, err := graph.Build(db, []telemetry.EntityID{"back"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Samples = 200
	cfg.TrainWindow = 120
	m, err := core.TrainOpt(context.Background(), db, g, cfg, core.TrainOpts{Now: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db, g, m
}

func TestLabelAssignments(t *testing.T) {
	db, _, m := crawlerDB(t)
	lb := NewLabeler(m, db, DefaultThresholds())
	if got := lb.Label("flow1"); got != HeavyHitter {
		t.Fatalf("flow1 label = %v, want heavy hitter", got)
	}
	if got := lb.Label("back"); got != HeavyHitter {
		t.Fatalf("back label = %v, want heavy hitter (CPU spike)", got)
	}
	if got := lb.Label("bystander"); got != Okay {
		t.Fatalf("bystander label = %v, want okay", got)
	}
	if got := lb.Label("ghost"); got != Okay {
		t.Fatalf("unknown entity label = %v, want okay", got)
	}
}

func TestLabelNonFunctional(t *testing.T) {
	db, _, m := crawlerDB(t)
	// Give the bystander an "up" metric stuck at 0 in the final slice.
	for tt := 0; tt <= m.Now(); tt++ {
		v := 1.0
		if tt == m.Now() {
			v = 0
		}
		if err := db.Observe("bystander", telemetry.MetricUp, tt, v); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLabeler(m, db, DefaultThresholds())
	if got := lb.Label("bystander"); got != NonFunctional {
		t.Fatalf("down entity label = %v, want non-functional", got)
	}
}

// TestCanCauseStateMachine pins every transition of the Figure 4 label state
// machine: all 25 (from, to) pairs, one row each, so any edit to canCause
// shows up as a named transition flipping.
func TestCanCauseStateMachine(t *testing.T) {
	cases := []struct {
		from, to Label
		want     bool
	}{
		// Okay anchors nothing: a healthy entity explains no downstream state.
		{Okay, Okay, false},
		{Okay, HeavyHitter, false},
		{Okay, HighDropRate, false},
		{Okay, Degraded, false},
		{Okay, NonFunctional, false},
		// A heavy hitter propagates load and can produce every failure state,
		// but cannot explain a healthy entity.
		{HeavyHitter, Okay, false},
		{HeavyHitter, HeavyHitter, true},
		{HeavyHitter, HighDropRate, true},
		{HeavyHitter, Degraded, true},
		{HeavyHitter, NonFunctional, true},
		// Drops degrade or kill what is behind them; they do not create load.
		{HighDropRate, Okay, false},
		{HighDropRate, HeavyHitter, false},
		{HighDropRate, HighDropRate, false},
		{HighDropRate, Degraded, true},
		{HighDropRate, NonFunctional, true},
		// Degradation cascades downstream but never manufactures load or drops.
		{Degraded, Okay, false},
		{Degraded, HeavyHitter, false},
		{Degraded, HighDropRate, false},
		{Degraded, Degraded, true},
		{Degraded, NonFunctional, true},
		// A dead component starves or kills its dependents.
		{NonFunctional, Okay, false},
		{NonFunctional, HeavyHitter, false},
		{NonFunctional, HighDropRate, false},
		{NonFunctional, Degraded, true},
		{NonFunctional, NonFunctional, true},
	}
	if want, got := 25, len(cases); want != got {
		t.Fatalf("transition table covers %d pairs, want %d", got, want)
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v->%v", c.from, c.to), func(t *testing.T) {
			if got := CanCause(c.from, c.to); got != c.want {
				t.Fatalf("CanCause(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
			}
		})
	}
}

func TestExplainTracesCrawlerChain(t *testing.T) {
	db, g, m := crawlerDB(t)
	lb := NewLabeler(m, db, DefaultThresholds())
	ch, ok := Explain(lb, g, "flow1", "back")
	if !ok {
		t.Fatal("expected an explanation chain")
	}
	if ch.Steps[0].Entity != "flow1" || ch.Steps[len(ch.Steps)-1].Entity != "back" {
		t.Fatalf("chain endpoints wrong: %v", ch)
	}
	// The chain must not route through the Okay bystander.
	for _, s := range ch.Steps {
		if s.Entity == "bystander" {
			t.Fatal("chain must avoid okay-labeled entities")
		}
	}
	text := ch.Render(db)
	if !strings.Contains(text, "flow:crawler->front") || !strings.Contains(text, "heavy hitter") {
		t.Fatalf("rendered chain missing expected content: %s", text)
	}
}

func TestExplainRejectsOkayRoot(t *testing.T) {
	db, g, m := crawlerDB(t)
	lb := NewLabeler(m, db, DefaultThresholds())
	if _, ok := Explain(lb, g, "bystander", "back"); ok {
		t.Fatal("an Okay-labeled root cannot anchor a chain")
	}
}

func TestExplainUnknownEntities(t *testing.T) {
	db, g, m := crawlerDB(t)
	lb := NewLabeler(m, db, DefaultThresholds())
	if _, ok := Explain(lb, g, "ghost", "back"); ok {
		t.Fatal("unknown root should fail")
	}
	if _, ok := Explain(lb, g, "flow1", "ghost"); ok {
		t.Fatal("unknown symptom should fail")
	}
}

func TestLabelString(t *testing.T) {
	names := map[Label]string{
		Okay: "okay", HeavyHitter: "heavy hitter", HighDropRate: "high drop rate",
		Degraded: "degraded performance", NonFunctional: "non-functional",
	}
	for l, want := range names {
		if l.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(l), l.String(), want)
		}
	}
	if Label(99).String() != "label(99)" {
		t.Fatal("unknown label string wrong")
	}
}

func TestChainRenderEmpty(t *testing.T) {
	if (Chain{}).String() != "(empty explanation)" {
		t.Fatal("empty chain render wrong")
	}
}

func TestHighDropRateLabel(t *testing.T) {
	db, _, m := crawlerDB(t)
	for tt := 0; tt <= m.Now(); tt++ {
		v := 0.0
		if tt == m.Now() {
			v = 0.05 // 5% drops, above the 0.1% threshold
		}
		if err := db.Observe("bystander", telemetry.MetricPktDrops, tt, v); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLabeler(m, db, DefaultThresholds())
	if got := lb.Label("bystander"); got != HighDropRate {
		t.Fatalf("label = %v, want high drop rate", got)
	}
}

func TestChainSentences(t *testing.T) {
	db, g, m := crawlerDB(t)
	lb := NewLabeler(m, db, DefaultThresholds())
	ch, ok := Explain(lb, g, "flow1", "back")
	if !ok {
		t.Fatal("expected a chain")
	}
	sents := ch.Sentences(db)
	if len(sents) != len(ch.Steps) {
		t.Fatalf("want %d sentences (hops + closing state), got %d", len(ch.Steps), len(sents))
	}
	if !strings.Contains(sents[0], "sent high load to") {
		t.Fatalf("heavy hitter verb missing: %q", sents[0])
	}
	last := sents[len(sents)-1]
	if !strings.Contains(last, "faced high load") {
		t.Fatalf("closing state sentence wrong: %q", last)
	}
	// Without a DB the raw IDs are used.
	raw := ch.Sentences(nil)
	if !strings.Contains(raw[0], "flow1") {
		t.Fatalf("nil-db rendering should use IDs: %q", raw[0])
	}
	if (Chain{}).Sentences(db) != nil {
		t.Fatal("empty chain should render no sentences")
	}
}
