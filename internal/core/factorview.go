package core

import (
	"murphy/internal/regress"
	"murphy/internal/telemetry"
)

// FactorView is a read-only snapshot of one trained factor's learned
// parameters. It exists for the incremental-training equivalence checks (the
// metamorph incremental arm and the inctrain benchmark harness compare a
// full retrain against the slid-statistics path factor by factor); diagnosis
// code never needs it.
type FactorView struct {
	// Features lists the selected neighbor metrics ("entity/metric"), in
	// ranking order.
	Features []string
	// Coef/FeatMean/FeatStd/Intercept/ResidualStd are the ridge model's
	// learned terms (standardized-feature coefficients). Empty/zero when the
	// factor's model is not the default ridge.
	Coef, FeatMean, FeatStd []float64
	Intercept, ResidualStd  float64
	// HMean/HStd/Med/MADScale/RScore/Novel are the factor's historical and
	// robust statistics over the training window.
	HMean, HStd, Med, MADScale, RScore float64
	Novel                              bool
}

// FactorView returns the learned parameters of the (id, metric) factor,
// fitting it first if nothing has yet, or ok=false when there is no such
// factor or its fit fails.
func (m *Model) FactorView(id telemetry.EntityID, metric string) (FactorView, bool) {
	f := m.factors[metricRef{id, metric}]
	if f == nil {
		return FactorView{}, false
	}
	c, err := f.fitted()
	if err != nil {
		return FactorView{}, false
	}
	v := FactorView{
		HMean: f.hmean, HStd: f.hstd,
		Med: f.med, MADScale: f.madScale,
		RScore: f.rscore, Novel: f.novel,
	}
	for _, fr := range c.features {
		v.Features = append(v.Features, fr.String())
	}
	if r, ok := c.model.(*regress.Ridge); ok {
		if coef, mean, std, intercept, fitted := r.LinearTerms(); fitted {
			v.Coef = append([]float64(nil), coef...)
			v.FeatMean = append([]float64(nil), mean...)
			v.FeatStd = append([]float64(nil), std...)
			v.Intercept = intercept
			v.ResidualStd = r.ResidualStd()
		}
	}
	return v, true
}
