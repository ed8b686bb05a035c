package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPSquareValidation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewPSquare(p); err == nil {
			t.Errorf("p=%v should be rejected", p)
		}
	}
	ps, err := NewPSquare(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ps.Quantile()) {
		t.Error("empty estimator should return NaN")
	}
}

func TestPSquareSmallSamples(t *testing.T) {
	ps, _ := NewPSquare(0.5)
	ps.Add(3)
	if ps.Quantile() != 3 {
		t.Errorf("single sample median = %v", ps.Quantile())
	}
	ps.Add(1)
	ps.Add(2)
	if q := ps.Quantile(); q != 2 {
		t.Errorf("3-sample median = %v, want 2", q)
	}
	if ps.N() != 3 {
		t.Errorf("N = %d", ps.N())
	}
}

func TestPSquareAgainstExactQuantiles(t *testing.T) {
	// Each case draws from its own seeded stream: the cases used to share
	// one generator and run in map order, so which samples a case saw — and
	// whether P2 landed within tolerance — changed from run to run.
	dists := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"uniform", func(rng *rand.Rand) float64 { return rng.Float64() * 10 }},
		{"normal", func(rng *rand.Rand) float64 { return 5 + 2*rng.NormFloat64() }},
		{"exp", func(rng *rand.Rand) float64 { return rng.ExpFloat64() * 3 }},
		{"bimodal", func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64() + 2
			}
			return rng.NormFloat64() + 8
		}},
	}
	for _, d := range dists {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			t.Run(d.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(21))
				ps, _ := NewPSquare(p)
				const n = 50000
				samples := make([]float64, n)
				for i := range samples {
					x := d.draw(rng)
					samples[i] = x
					ps.Add(x)
				}
				sort.Float64s(samples)
				exact := samples[int(p*float64(n))]
				got := ps.Quantile()
				// Tolerance relative to the distribution's spread.
				spread := samples[n-1-n/100] - samples[n/100]
				if math.Abs(got-exact) > 0.05*spread+0.02 {
					t.Errorf("p=%v: P2 %v vs exact %v (spread %v)", p, got, exact, spread)
				}
			})
		}
	}
}

func TestPSquareMonotoneQuantiles(t *testing.T) {
	// For the same stream, the 0.1-quantile <= median <= 0.9-quantile.
	rng := rand.New(rand.NewSource(33))
	q10, _ := NewPSquare(0.1)
	q50, _ := NewPSquare(0.5)
	q90, _ := NewPSquare(0.9)
	for i := 0; i < 20000; i++ {
		x := rng.NormFloat64()*3 + 7
		q10.Add(x)
		q50.Add(x)
		q90.Add(x)
	}
	if !(q10.Quantile() <= q50.Quantile() && q50.Quantile() <= q90.Quantile()) {
		t.Errorf("quantiles out of order: %v %v %v",
			q10.Quantile(), q50.Quantile(), q90.Quantile())
	}
}

func TestPSquareConstantStream(t *testing.T) {
	ps, _ := NewPSquare(0.5)
	for i := 0; i < 1000; i++ {
		ps.Add(4.2)
	}
	if q := ps.Quantile(); q != 4.2 {
		t.Errorf("constant stream median = %v", q)
	}
}
