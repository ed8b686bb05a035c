package pworld

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/match"
)

// exampleWorld reproduces the running example of the paper with prices
// {3, 3, 2} for tasks {r1, r2, r3} (Example 3 / Figure 2):
// distances {1.3, 0.7, 1.0}, acceptance S(3)=0.5, S(3)=0.5, S(2)=0.8.
// Graph of Figure 1b: r1 and r2 (grid 9) reach only w1; r3 (grid 11)
// reaches all three workers — the topology Example 5's arithmetic pins down.
func exampleWorld() *World {
	g := match.NewGraph(3, 3)
	g.AddEdge(0, 0) // r1-w1
	g.AddEdge(1, 0) // r2-w1
	g.AddEdge(2, 0) // r3-w1
	g.AddEdge(2, 1) // r3-w2
	g.AddEdge(2, 2) // r3-w3
	return &World{
		Graph:      g,
		AcceptProb: []float64{0.5, 0.5, 0.8},
		Weight:     []float64{1.3 * 3, 0.7 * 3, 1.0 * 2},
	}
}

func TestExpectedRevenueExactPaperExample3(t *testing.T) {
	// "given the unit prices {3, 3, 2}, the expected total revenue of
	// Fig. 1b is 4.1" — the exact enumeration gives 4.075, which the paper
	// reports rounded to one decimal. See EXPERIMENTS.md for the world-by-
	// world table.
	w := exampleWorld()
	got, err := ExpectedRevenueExact(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.075) > 1e-9 {
		t.Fatalf("E[U] = %v, want 4.075 (paper Example 3, rounded to 4.1)", got)
	}
}

func TestPaperFigure2Worlds(t *testing.T) {
	// Spot-check individual possible worlds from Figure 2. World 2 is
	// {r1 accepts, r2/r3 reject}: U = 3.9.
	w := exampleWorld()
	if u := revenueOf(w, []int{0}); math.Abs(u-3.9) > 1e-9 {
		t.Errorf("U[only r1] = %v, want 3.9", u)
	}
	// All accept: w1 serves r1 (3.9), r3 takes w2/w3 (2.0), r2 is
	// unserved: U = 5.9.
	if u := revenueOf(w, []int{0, 1, 2}); math.Abs(u-5.9) > 1e-9 {
		t.Errorf("U[all accept] = %v, want 5.9", u)
	}
	// r1 and r2 accept, r3 rejects: they share w1, the heavier r1 wins.
	if u := revenueOf(w, []int{0, 1}); math.Abs(u-3.9) > 1e-9 {
		t.Errorf("U[r1,r2] = %v, want 3.9", u)
	}
	// r2 and r3 accept: no conflict (r3 moves to w2/w3): 2.1 + 2.0.
	if u := revenueOf(w, []int{1, 2}); math.Abs(u-4.1) > 1e-9 {
		t.Errorf("U[r2,r3] = %v, want 4.1", u)
	}
	// None accept.
	if u := revenueOf(w, nil); u != 0 {
		t.Errorf("U[empty] = %v, want 0", u)
	}
}

func TestExpectedRevenueOptimalPricesBeatUniform(t *testing.T) {
	// The paper argues {3,3,2} is optimal for the example; it must beat the
	// globally-uniform price 2 (which Table 1 favours only with unlimited
	// supply).
	table := map[float64]float64{1: 0.9, 2: 0.8, 3: 0.5}
	build := func(p1, p2, p3 float64) *World {
		w := exampleWorld()
		w.AcceptProb = []float64{table[p1], table[p2], table[p3]}
		w.Weight = []float64{1.3 * p1, 0.7 * p2, 1.0 * p3}
		return w
	}
	opt, err := ExpectedRevenueExact(build(3, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{1, 2, 3} {
		uni, err := ExpectedRevenueExact(build(p, p, p))
		if err != nil {
			t.Fatal(err)
		}
		if uni > opt+1e-9 {
			t.Errorf("uniform price %v yields %v > optimal %v", p, uni, opt)
		}
	}
	// Exhaustive check over per-grid price combinations: r1 and r2 share
	// grid 9 so they must share a price (Definition 1's one-price-per-grid
	// rule). {3,3,2} is optimal, exactly as the paper claims.
	best, bestCombo := -1.0, [3]float64{}
	for _, p9 := range []float64{1, 2, 3} {
		for _, p11 := range []float64{1, 2, 3} {
			u, err := ExpectedRevenueExact(build(p9, p9, p11))
			if err != nil {
				t.Fatal(err)
			}
			if u > best {
				best, bestCombo = u, [3]float64{p9, p9, p11}
			}
		}
	}
	if bestCombo != [3]float64{3, 3, 2} {
		t.Errorf("optimal combo = %v (%.4f), paper says {3,3,2} (%.4f)", bestCombo, best, opt)
	}
}

func TestExactVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		nw := 1 + rng.Intn(6)
		g := match.NewGraph(n, nw)
		probs := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			probs[i] = rng.Float64()
			weights[i] = rng.Float64() * 5
			for j := 0; j < nw; j++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(i, j)
				}
			}
		}
		w := &World{Graph: g, AcceptProb: probs, Weight: weights}
		exact, err := ExpectedRevenueExact(w)
		if err != nil {
			t.Fatal(err)
		}
		mc, se, err := ExpectedRevenueMC(w, 20000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mc-exact) > 5*se+1e-6 {
			t.Errorf("trial %d: MC %v vs exact %v (se %v)", trial, mc, exact, se)
		}
	}
}

func TestExpectedRevenueMonotoneInProb(t *testing.T) {
	// Raising any single acceptance probability cannot decrease E[U].
	w := exampleWorld()
	base, _ := ExpectedRevenueExact(w)
	for i := range w.AcceptProb {
		w2 := exampleWorld()
		w2.AcceptProb[i] = math.Min(1, w2.AcceptProb[i]+0.15)
		up, _ := ExpectedRevenueExact(w2)
		if up < base-1e-9 {
			t.Errorf("raising prob of task %d decreased E[U]: %v -> %v", i, base, up)
		}
		_ = w2
	}
	_ = base
}

func TestValidationErrors(t *testing.T) {
	w := exampleWorld()
	w.AcceptProb = w.AcceptProb[:2]
	if _, err := ExpectedRevenueExact(w); err == nil {
		t.Error("mismatched probs should error")
	}
	w = exampleWorld()
	w.AcceptProb[0] = 1.5
	if _, err := ExpectedRevenueExact(w); err == nil {
		t.Error("out-of-range prob should error")
	}
	w = exampleWorld()
	w.Weight[0] = -1
	if _, err := ExpectedRevenueExact(w); err == nil {
		t.Error("negative weight should error")
	}
	w = exampleWorld()
	if _, _, err := ExpectedRevenueMC(w, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero samples should error")
	}
	big := &World{Graph: match.NewGraph(MaxTasksExact+1, 1),
		AcceptProb: make([]float64, MaxTasksExact+1),
		Weight:     make([]float64, MaxTasksExact+1)}
	if _, err := ExpectedRevenueExact(big); err == nil {
		t.Error("oversized exact enumeration should error")
	}
}

func TestDeterministicWorld(t *testing.T) {
	// All probabilities 1: E[U] equals the max-weight matching outright.
	w := exampleWorld()
	w.AcceptProb = []float64{1, 1, 1}
	got, err := ExpectedRevenueExact(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.9) > 1e-9 {
		t.Errorf("E[U] = %v, want 5.9", got)
	}
	// All probabilities 0: no revenue.
	w.AcceptProb = []float64{0, 0, 0}
	got, _ = ExpectedRevenueExact(w)
	if got != 0 {
		t.Errorf("E[U] = %v, want 0", got)
	}
}
