package exp

import (
	"math"

	"spatialcrowd/internal/core"
)

// logisticDemand fits one grid's acceptance curve as a logistic function of
// price, S(p) = 1 / (1 + exp(a + b*p)) with b >= 0, by online gradient
// descent on the log-loss of accept/reject outcomes: the parametric demand
// model of related work (Section 6.2) that ablation A6 sets against MAPS's
// per-rung UCB estimator. It shares strength across prices at the cost of
// bias when the true demand is not logistic.
type logisticDemand struct {
	a, b float64 // curve parameters; acceptance falls as a + b*p grows
	lr   float64 // learning rate
	n    int     // observations so far
}

// newLogisticDemand starts from S(mid) = 0.5 with slope b = 1.
func newLogisticDemand(mid float64) logisticDemand {
	return logisticDemand{a: -mid, b: 1, lr: 0.05}
}

// observe folds one accept/reject outcome at price p into the fit.
func (l *logisticDemand) observe(p float64, accepted bool) {
	l.n++
	y := 0.0
	if accepted {
		y = 1
	}
	// d(logloss)/da = -(S - y) and d(logloss)/db = -(S - y) * p.
	g := l.accept(p) - y
	l.a += l.lr * g
	l.b += l.lr * (g * p)
	if l.b < 0 {
		l.b = 0 // acceptance must be non-increasing in price
	}
	if l.n%500 == 0 && l.lr > 0.005 {
		l.lr *= 0.9 // decay slowly for stability
	}
}

// accept returns the fitted S(p).
func (l *logisticDemand) accept(p float64) float64 {
	return 1 / (1 + math.Exp(l.a+l.b*p))
}

// logitMAPS is ablation A6's MAPS variant: before every pricing pass it
// overwrites each touched cell's UCB statistics with pseudo-counts drawn
// from the cell's logistic fit, so Algorithm 3's maximizer consumes the
// parametric curve, and outcomes train the fits instead of MAPS.
type logitMAPS struct {
	maps *core.MAPS
	fits []logisticDemand // by cell id
	ver  uint64
}

func newLogitMAPS(p core.Params, basePrice float64, numCells int) (*logitMAPS, error) {
	m, err := core.NewMAPS(p, basePrice)
	if err != nil {
		return nil, err
	}
	fits := make([]logisticDemand, numCells)
	for i := range fits {
		fits[i] = newLogisticDemand((p.PMin + p.PMax) / 2)
	}
	return &logitMAPS{maps: m, fits: fits}, nil
}

// Name implements core.Strategy.
func (pm *logitMAPS) Name() string { return "MAPS-logit" }

// Prices implements core.Strategy.
func (pm *logitMAPS) Prices(ctx *core.PeriodContext) []float64 {
	const pseudo = 10000
	for _, ct := range ctx.Cells {
		if f := &pm.fits[ct.Cell]; f.n > 0 {
			cs := pm.maps.CellStats(ct.Cell)
			fresh := core.NewCellStats(cs.Ladder())
			for _, p := range cs.Ladder() {
				fresh.Seed(p, pseudo, int(pseudo*f.accept(p)))
			}
			*cs = *fresh
		}
	}
	return pm.maps.Prices(ctx)
}

// Observe implements core.Strategy.
func (pm *logitMAPS) Observe(ctx *core.PeriodContext, prices []float64, accepted []bool) {
	if len(ctx.Tasks) > 0 {
		pm.ver++
	}
	for i, tv := range ctx.Tasks {
		pm.fits[tv.Cell].observe(prices[i], accepted[i])
	}
}

// PriceStateVersion implements core.PriceCacheable: the fits feed the next
// Prices call, so every Observe invalidates a cached price vector.
func (pm *logitMAPS) PriceStateVersion() uint64 { return pm.ver }
