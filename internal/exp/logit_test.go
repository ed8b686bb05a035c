package exp

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/stats"
)

func TestLogisticDemandFitsLogisticTruth(t *testing.T) {
	// True curve: S(p) = sigma(-(a + b p)) with a = -4, b = 2
	// => S(1) ~ 0.88, S(2) = 0.5, S(3) ~ 0.12.
	truth := func(p float64) float64 { return 1 / (1 + math.Exp(-4+2*p)) }
	f := newLogisticDemand(2.5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30000; i++ {
		p := 1 + 4*rng.Float64()
		f.observe(p, rng.Float64() < truth(p))
	}
	for _, p := range []float64{1, 2, 3, 4} {
		if got := f.accept(p); math.Abs(got-truth(p)) > 0.08 {
			t.Errorf("S(%v) = %v, want ~%v", p, got, truth(p))
		}
	}
	if f.n != 30000 {
		t.Errorf("N = %d", f.n)
	}
}

func TestLogisticDemandMonotoneNonIncreasing(t *testing.T) {
	f := newLogisticDemand(3)
	rng := rand.New(rand.NewSource(2))
	// Even under adversarially increasing acceptance observations, the
	// b >= 0 projection keeps the fitted curve non-increasing in price.
	for i := 0; i < 5000; i++ {
		p := 1 + 4*rng.Float64()
		f.observe(p, p > 3) // higher prices "accept" more
	}
	prev := f.accept(1)
	for p := 1.0; p <= 5; p += 0.1 {
		cur := f.accept(p)
		if cur > prev+1e-9 {
			t.Fatalf("fitted curve increased at p=%v", p)
		}
		prev = cur
	}
}

func TestLogisticDemandAgainstTruncNormalTruth(t *testing.T) {
	// Misspecified truth (truncated normal): the logistic fit should still
	// track the curve's general level at interior prices.
	d := stats.TruncNormal{Mu: 2, Sigma: 1, Lo: 1, Hi: 5}
	f := newLogisticDemand(2.5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40000; i++ {
		p := 1 + 4*rng.Float64()
		f.observe(p, p <= d.Sample(rng))
	}
	for _, p := range []float64{1.5, 2, 2.5, 3} {
		if got, want := f.accept(p), stats.Accept(d, p); math.Abs(got-want) > 0.15 {
			t.Errorf("S(%v) = %v, want ~%v (misspecification tolerance)", p, got, want)
		}
	}
}

// TestParametricMAPSEndToEnd drives A6's logistic-fit MAPS through the
// paper's running example (two tasks in cell 8, one in cell 10).
func TestParametricMAPSEndToEnd(t *testing.T) {
	tasks := []market.Task{
		{ID: 1, Origin: geo.Point{X: 1, Y: 5}, Distance: 1.3},
		{ID: 2, Origin: geo.Point{X: 1.5, Y: 5.5}, Distance: 0.7},
		{ID: 3, Origin: geo.Point{X: 5, Y: 5}, Distance: 1.0},
	}
	workers := []market.Worker{
		{ID: 1, Loc: geo.Point{X: 3, Y: 5}, Radius: 2.5},
		{ID: 2, Loc: geo.Point{X: 7, Y: 5}, Radius: 2.5},
		{ID: 3, Loc: geo.Point{X: 5, Y: 3}, Radius: 2.5},
	}
	ctx := core.BuildContext(geo.SquareGrid(8, 4), 0, tasks, workers, market.BuildBipartite(tasks, workers))
	pm, err := newLogitMAPS(core.Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Name() != "MAPS-logit" {
		t.Errorf("name %q", pm.Name())
	}
	table := map[float64]float64{1: 0.9, 1.5: 0.85, 2.25: 0.75, 3: 0.5}
	accept := func(p float64) float64 {
		best, bd := 0.9, math.Inf(1)
		for tp, s := range table {
			if d := math.Abs(tp - p); d < bd {
				bd, best = d, s
			}
		}
		return best
	}
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 2000; round++ {
		prices := pm.Prices(ctx)
		acc := make([]bool, len(prices))
		for i, p := range prices {
			acc[i] = rng.Float64() < accept(p)
		}
		ver := pm.PriceStateVersion()
		pm.Observe(ctx, prices, acc)
		if pm.PriceStateVersion() == ver {
			t.Fatal("Observe did not advance the price-state version")
		}
	}
	prices := pm.Prices(ctx)
	for i, p := range prices {
		if p < 1 || p > 3 {
			t.Fatalf("task %d priced %v out of bounds", i, p)
		}
	}
	// Same grid, same price (Definition 1) must survive the wrapper.
	if prices[0] != prices[1] {
		t.Errorf("cell 8 split prices: %v vs %v", prices[0], prices[1])
	}
}
