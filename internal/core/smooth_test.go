package core

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
)

func TestSmoothPricesReducesGap(t *testing.T) {
	grid := geo.SquareGrid(30, 3)
	prices := []float64{
		1, 1, 1,
		1, 5, 1, // spike in the middle
		1, 1, 1,
	}
	before := PriceGap(grid, prices)
	smoothed := SmoothPrices(grid, prices, 0.5)
	after := PriceGap(grid, smoothed)
	if after >= before {
		t.Fatalf("gap %v did not shrink (was %v)", after, before)
	}
	// The spike moved toward its neighbors' mean: (1-w)*5 + w*1 = 3.
	if math.Abs(smoothed[4]-3) > 1e-9 {
		t.Errorf("spike smoothed to %v, want 3", smoothed[4])
	}
	// Total order preserved: spike still the max.
	for c, p := range smoothed {
		if c != 4 && p > smoothed[4] {
			t.Errorf("cell %d (%v) exceeds the smoothed spike (%v)", c, p, smoothed[4])
		}
	}
}

func TestSmoothPricesEdgeCases(t *testing.T) {
	grid := geo.SquareGrid(30, 3)
	// w = 0: identity.
	prices := []float64{0: 2, 4: 3, 8: 0}
	out := SmoothPrices(grid, prices, 0)
	if out[0] != 2 || out[4] != 3 {
		t.Error("w=0 must be the identity")
	}
	// Isolated cell (no priced neighbors): unchanged; unpriced cells stay 0.
	out = SmoothPrices(grid, []float64{0: 2.5, 8: 0}, 0.8)
	if out[0] != 2.5 || out[1] != 0 {
		t.Errorf("isolated cell changed to %v (neighbor %v)", out[0], out[1])
	}
	// w >= 1 is clamped, not panicking.
	out = SmoothPrices(grid, []float64{0: 2, 1: 4, 8: 0}, 1.5)
	if out[0] <= 2 || out[0] >= 4 {
		t.Errorf("clamped smoothing produced %v", out[0])
	}
	// A vector shorter than the space: the missing cells are unpriced.
	out = SmoothPrices(grid, []float64{2, 4}, 0.5)
	if len(out) != 2 || out[0] != 3 || out[1] != 3 {
		t.Errorf("short vector smoothed to %v, want [3 3]", out)
	}
	// Input is not mutated.
	in := []float64{2, 4}
	SmoothPrices(grid, in, 0.5)
	if in[0] != 2 || in[1] != 4 {
		t.Error("input mutated")
	}
}

func TestSmoothingRepeatedConvergesToConsensus(t *testing.T) {
	grid := geo.SquareGrid(40, 4)
	rng := rand.New(rand.NewSource(3))
	prices := make([]float64, grid.NumCells())
	for c := range prices {
		prices[c] = 1 + 4*rng.Float64()
	}
	for i := 0; i < 400; i++ {
		prices = SmoothPrices(grid, prices, 0.5)
	}
	if gap := PriceGap(grid, prices); gap > 0.05 {
		t.Errorf("repeated smoothing left gap %v", gap)
	}
}

func TestMAPSWithSmoothingStillOnePricePerCell(t *testing.T) {
	ctx := exampleContext(t)
	m, _ := NewMAPS(Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 2)
	m.SetLadder([]float64{1, 2, 3})
	m.Smoothing = 0.3
	for _, cell := range []int{8, 10} {
		cs := m.CellStats(cell)
		cs.Seed(1, 100000, 90000)
		cs.Seed(2, 100000, 80000)
		cs.Seed(3, 100000, 50000)
	}
	prices := m.Prices(ctx)
	if prices[0] != prices[1] {
		t.Errorf("cell 8 tasks priced differently: %v vs %v", prices[0], prices[1])
	}
	// Cells 8 and 10 are not neighbors on the 4x4 grid, so smoothing with no
	// priced neighbors leaves the Example 5 prices intact.
	if prices[0] != 3 || prices[2] != 2 {
		t.Errorf("non-adjacent grids should keep {3,2}, got %v", prices)
	}
}

// TestRestoredStateReplacesBasePrice: snapshot_test.go restores into a
// strategy built like the original; a redeployed service restores into one
// built with whatever base price it had at hand, and must still make the
// original's pricing decisions.
func TestRestoredStateReplacesBasePrice(t *testing.T) {
	ctx := exampleContext(t)
	m1, _ := NewMAPS(Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 2)
	m1.SetLadder([]float64{1, 2, 3})
	for _, cell := range []int{8, 10} {
		cs := m1.CellStats(cell)
		cs.Seed(1, 100000, 90000)
		cs.Seed(2, 100000, 80000)
		cs.Seed(3, 100000, 50000)
	}
	st, err := m1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMAPS(Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 1)
	if err := m2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if m2.BasePrice() != m1.BasePrice() {
		t.Fatalf("restored base price %v, want %v", m2.BasePrice(), m1.BasePrice())
	}
	p1 := m1.Prices(ctx)
	p2 := m2.Prices(ctx)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("restored strategy disagrees at task %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}
