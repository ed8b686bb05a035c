package core

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/stats"
)

// distOracle implements ProbeOracle from per-cell valuation distributions.
type distOracle struct {
	dists map[int]stats.Dist
	def   stats.Dist
	rng   *rand.Rand
}

func (o *distOracle) Probe(cell int, price float64) bool {
	d := o.def
	if dd, ok := o.dists[cell]; ok {
		d = dd
	}
	return price <= d.Sample(o.rng)
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"defaults", DefaultParams(), true},
		{"zero pmin", Params{PMin: 0, PMax: 5, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, false},
		{"pmax < pmin", Params{PMin: 2, PMax: 1, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, false},
		{"zero alpha", Params{PMin: 1, PMax: 5, Alpha: 0, Eps: 0.2, Delta: 0.01}, false},
		{"zero eps", Params{PMin: 1, PMax: 5, Alpha: 0.5, Eps: 0, Delta: 0.01}, false},
		{"delta = 1", Params{PMin: 1, PMax: 5, Alpha: 0.5, Eps: 0.2, Delta: 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); (err == nil) != c.ok {
				t.Errorf("Validate() err=%v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestParamsClamp(t *testing.T) {
	p := DefaultParams()
	if p.Clamp(0.5) != 1 || p.Clamp(7) != 5 || p.Clamp(3) != 3 {
		t.Error("Clamp wrong")
	}
}

func TestBasePCalibration(t *testing.T) {
	// Two cells with known truncated-normal demand; the estimated reserve
	// must be close to the true per-grid Myerson reserve, and the base price
	// the average of the two.
	p := DefaultParams()
	b, err := NewBaseP(p)
	if err != nil {
		t.Fatal(err)
	}
	d0 := stats.TruncNormal{Mu: 1.5, Sigma: 0.8, Lo: 1, Hi: 5}
	d1 := stats.TruncNormal{Mu: 3.5, Sigma: 0.8, Lo: 1, Hi: 5}
	oracle := &distOracle{
		dists: map[int]stats.Dist{0: d0, 1: d1},
		rng:   rand.New(rand.NewSource(42)),
	}
	if err := b.Calibrate(oracle, 2, 0); err != nil {
		t.Fatal(err)
	}
	ladder, _ := stats.PriceLadder(p.PMin, p.PMax, p.Alpha)
	bestOn := func(d stats.Dist) float64 {
		best, bestRev := ladder[0], -1.0
		for _, lp := range ladder {
			if rev := stats.RevenueAt(d, lp); rev > bestRev {
				best, bestRev = lp, rev
			}
		}
		return best
	}
	res := b.Reserves()
	if len(res) != 2 {
		t.Fatalf("reserves = %v", res)
	}
	// With h(p) in the hundreds the estimate should land on the true best
	// ladder rung (the revenue gaps here are far above eps).
	if res[0] != bestOn(d0) {
		t.Errorf("cell 0 reserve = %v, want %v", res[0], bestOn(d0))
	}
	if res[1] != bestOn(d1) {
		t.Errorf("cell 1 reserve = %v, want %v", res[1], bestOn(d1))
	}
	if pb := b.BasePrice(); math.Abs(pb-(res[0]+res[1])/2) > 1e-12 {
		t.Errorf("base price %v is not the mean of %v", pb, res)
	}
	if b.ProbeCount() == 0 {
		t.Error("calibration should consume probes")
	}
}

func TestBasePTheorem3Bound(t *testing.T) {
	// Theorem 3: p_m S(p_m) >= (1 - alpha) p* S(p*) with high probability.
	// Check over several MHR demand curves and seeds.
	p := DefaultParams()
	for seed := int64(0); seed < 8; seed++ {
		mu := 1.2 + float64(seed)*0.4
		d := stats.TruncNormal{Mu: mu, Sigma: 1.0, Lo: 1, Hi: 5}
		b, _ := NewBaseP(p)
		oracle := &distOracle{def: d, rng: rand.New(rand.NewSource(seed))}
		if err := b.Calibrate(oracle, 1, 0); err != nil {
			t.Fatal(err)
		}
		pm := b.Reserves()[0]
		pstar := stats.MyersonReserve(d, p.PMin, p.PMax)
		lhs := stats.RevenueAt(d, pm)
		rhs := (1 - p.Alpha) * stats.RevenueAt(d, pstar)
		if lhs < rhs-0.05 { // small slack for sampling noise beyond eps
			t.Errorf("seed %d: p_m=%v gives %v < (1-alpha)*OPT %v (p*=%v)",
				seed, pm, lhs, rhs, pstar)
		}
	}
}

func TestBasePCalibrateErrors(t *testing.T) {
	b, _ := NewBaseP(DefaultParams())
	if err := b.Calibrate(nil, 2, 0); err == nil {
		t.Error("nil oracle should error")
	}
	if err := b.Calibrate(&distOracle{def: stats.Uniform{Lo: 1, Hi: 5}, rng: rand.New(rand.NewSource(1))}, 0, 0); err == nil {
		t.Error("zero cells should error")
	}
	if _, err := NewBaseP(Params{}); err == nil {
		t.Error("invalid params should error")
	}
}

func TestBasePUncalibratedFallback(t *testing.T) {
	b, _ := NewBaseP(DefaultParams())
	if pb := b.BasePrice(); pb != 3 {
		t.Errorf("uncalibrated base price = %v, want midpoint 3", pb)
	}
	b.SetBasePrice(2.2)
	if pb := b.BasePrice(); pb != 2.2 {
		t.Errorf("base price = %v, want 2.2", pb)
	}
	b.SetBasePrice(99)
	if pb := b.BasePrice(); pb != 5 {
		t.Errorf("base price should clamp to 5, got %v", pb)
	}
}

func TestBasePPricesUniform(t *testing.T) {
	b, _ := NewBaseP(DefaultParams())
	b.SetBasePrice(2.5)
	ctx := exampleContext(t)
	prices := b.Prices(ctx)
	for i, p := range prices {
		if p != 2.5 {
			t.Errorf("task %d priced %v, want 2.5", i, p)
		}
	}
	b.Observe(ctx, prices, make([]bool, len(prices))) // must not panic
}

func TestCellStatsObserveAndMean(t *testing.T) {
	cs := NewCellStats([]float64{1, 2, 3})
	for i := 0; i < 10; i++ {
		cs.Observe(2, i < 8) // 8 accepts of 10
	}
	if got := cs.MeanAt(2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("mean = %v, want 0.8", got)
	}
	if cs.TriedAt(2) != 10 || cs.Total() != 10 {
		t.Errorf("tried=%d total=%d", cs.TriedAt(2), cs.Total())
	}
	if cs.MeanAt(1) != 0 {
		t.Error("untried price should have zero mean")
	}
	// Nearest-rung snapping: 2.2 maps to rung 2.
	cs.Observe(2.2, true)
	if cs.TriedAt(2) != 11 {
		t.Error("observation at 2.2 should snap to rung 2")
	}
}

func TestCellStatsIndexCap(t *testing.T) {
	cs := NewCellStats([]float64{1, 2, 3})
	cs.Seed(2, 1000, 800)
	// Large supply: cap never binds, index = UCB term.
	idx := cs.Index(1, 10)
	want := 2*0.8 + stats.UCBRadius(2, 1000, 1000)
	if math.Abs(idx-want) > 1e-12 {
		t.Errorf("index = %v, want %v", idx, want)
	}
	// Tight supply: cap binds.
	if got := cs.Index(1, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("capped index = %v, want 0.2", got)
	}
	// Unexplored price with observations elsewhere: index equals the cap.
	if got := cs.Index(0, 0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unexplored index = %v, want cap 0.3", got)
	}
}

func TestCellStatsBestIndexPaperExample5(t *testing.T) {
	// Grid 9 of Example 5: C=2.0, top-1 distance 1.3 => D/C = 0.65 and
	// Table 1 ratios. Best index must be price 3 with value 1.5
	// (=> increase 3.0 after scaling by C).
	cs := NewCellStats([]float64{1, 2, 3})
	cs.Seed(1, 100000, 90000)
	cs.Seed(2, 100000, 80000)
	cs.Seed(3, 100000, 50000)
	pos, val := cs.BestIndex(0.65)
	if cs.Ladder()[pos] != 3 {
		t.Fatalf("best price = %v, want 3", cs.Ladder()[pos])
	}
	if math.Abs(val-1.5) > 0.06 { // UCB radius ~0.05 at N=3e5
		t.Errorf("best index = %v, want ~1.5", val)
	}
	// Grid 11: D/C = 1.0 => best price 2, value ~1.6.
	pos, val = cs.BestIndex(1.0)
	if cs.Ladder()[pos] != 2 {
		t.Fatalf("best price = %v, want 2", cs.Ladder()[pos])
	}
	if math.Abs(val-1.6) > 0.06 {
		t.Errorf("best index = %v, want ~1.6", val)
	}
}

func TestCellStatsChangeDetection(t *testing.T) {
	cs := NewCellStats([]float64{2})
	cs.ChangeWindow = 32
	rng := rand.New(rand.NewSource(9))
	// Learn S(2) = 0.9.
	for i := 0; i < 500; i++ {
		cs.Observe(2, rng.Float64() < 0.9)
	}
	if m := cs.MeanAt(2); math.Abs(m-0.9) > 0.05 {
		t.Fatalf("learned mean %v, want ~0.9", m)
	}
	// Demand collapses to 0.2: the detector must fire and re-learn.
	for i := 0; i < 500; i++ {
		cs.Observe(2, rng.Float64() < 0.2)
	}
	if cs.Changes == 0 {
		t.Fatal("change detector never fired")
	}
	if m := cs.MeanAt(2); math.Abs(m-0.2) > 0.1 {
		t.Errorf("post-change mean %v, want ~0.2 (history dropped)", m)
	}
}

func TestCellStatsNoFalseChangeUnderStationaryDemand(t *testing.T) {
	cs := NewCellStats([]float64{2})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		cs.Observe(2, rng.Float64() < 0.7)
	}
	// A handful of resets is tolerable (2-sigma fires ~5% of windows); what
	// matters is the estimate stays sharp.
	if m := cs.MeanAt(2); math.Abs(m-0.7) > 0.08 {
		t.Errorf("stationary mean drifted to %v", m)
	}
}

// exampleContext builds the period context of the paper's running example:
// grid of 16 cells over [0,8]^2; r1(d=1.3) and r2(d=0.7) in cell 8
// (paper grid 9), r3(d=1.0) in cell 10 (paper grid 11); workers w1(3,5),
// w2(7,5), w3(5,3) with radius 2.5.
func exampleContext(t *testing.T) *PeriodContext {
	t.Helper()
	grid := geo.SquareGrid(8, 4)
	tasks := []market.Task{
		{ID: 1, Origin: geo.Point{X: 1, Y: 5}, Dest: geo.Point{X: 1, Y: 6.3}, Distance: 1.3},
		{ID: 2, Origin: geo.Point{X: 1.5, Y: 5.5}, Dest: geo.Point{X: 1.5, Y: 6.2}, Distance: 0.7},
		{ID: 3, Origin: geo.Point{X: 5, Y: 5}, Dest: geo.Point{X: 5, Y: 6}, Distance: 1.0},
	}
	workers := []market.Worker{
		{ID: 1, Loc: geo.Point{X: 3, Y: 5}, Radius: 2.5},
		{ID: 2, Loc: geo.Point{X: 7, Y: 5}, Radius: 2.5},
		{ID: 3, Loc: geo.Point{X: 5, Y: 3}, Radius: 2.5},
	}
	graph := market.BuildBipartite(tasks, workers)
	// Topology sanity: r1,r2 only reach w1; r3 reaches all three.
	if len(graph.Adj(0)) != 1 || len(graph.Adj(1)) != 1 || len(graph.Adj(2)) != 3 {
		t.Fatalf("example graph degrees %d/%d/%d, want 1/1/3",
			len(graph.Adj(0)), len(graph.Adj(1)), len(graph.Adj(2)))
	}
	return BuildContext(grid, 0, tasks, workers, graph)
}

func TestMAPSPaperExample5(t *testing.T) {
	// With Table 1 statistics pre-seeded, MAPS must reproduce Example 5:
	// price 3 for the grid of r1/r2 and price 2 for the grid of r3, with one
	// worker of supply each.
	ctx := exampleContext(t)
	m, err := NewMAPS(Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.SetLadder([]float64{1, 2, 3})
	for _, cell := range []int{8, 10} {
		cs := m.CellStats(cell)
		cs.Seed(1, 100000, 90000)
		cs.Seed(2, 100000, 80000)
		cs.Seed(3, 100000, 50000)
	}
	prices := m.Prices(ctx)
	if prices[0] != 3 || prices[1] != 3 {
		t.Errorf("grid-9 tasks priced %v/%v, want 3/3 (Example 5)", prices[0], prices[1])
	}
	if prices[2] != 2 {
		t.Errorf("grid-11 task priced %v, want 2 (Example 5)", prices[2])
	}
	if m.LastSupply[8] != 1 {
		t.Errorf("grid 9 supply = %d, want 1 (r2 has no augmenting path)", m.LastSupply[8])
	}
	if m.LastSupply[10] != 1 {
		t.Errorf("grid 11 supply = %d, want 1", m.LastSupply[10])
	}
}

func TestMAPSSameCellSamePrice(t *testing.T) {
	// Definition 1: one price per grid per period.
	rng := rand.New(rand.NewSource(4))
	grid := geo.SquareGrid(100, 5)
	var tasks []market.Task
	for i := 0; i < 60; i++ {
		o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		tasks = append(tasks, market.Task{
			ID: i, Origin: o, Dest: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Distance: 1 + rng.Float64()*10,
		})
	}
	var workers []market.Worker
	for i := 0; i < 20; i++ {
		workers = append(workers, market.Worker{
			ID: i, Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Radius: 20,
		})
	}
	graph := market.BuildBipartite(tasks, workers)
	ctx := BuildContext(grid, 0, tasks, workers, graph)

	m, _ := NewMAPS(DefaultParams(), 2)
	// Train with random observations so prices move off the base price.
	for round := 0; round < 30; round++ {
		prices := m.Prices(ctx)
		accepted := make([]bool, len(prices))
		for i := range accepted {
			accepted[i] = rng.Float64() < 0.6
		}
		m.Observe(ctx, prices, accepted)
	}
	prices := m.Prices(ctx)
	perCell := map[int]float64{}
	for i, tv := range ctx.Tasks {
		if prev, ok := perCell[tv.Cell]; ok && prev != prices[i] {
			t.Fatalf("cell %d has two prices %v and %v", tv.Cell, prev, prices[i])
		}
		perCell[tv.Cell] = prices[i]
		if prices[i] < 1-1e-9 || prices[i] > 5+1e-9 {
			t.Fatalf("price %v out of [1,5]", prices[i])
		}
	}
}

func TestMAPSSupplyRespectsMatchingFeasibility(t *testing.T) {
	// Total allocated supply can never exceed the maximum matching size of
	// the bipartite graph (every admitted unit is one augmenting path).
	rng := rand.New(rand.NewSource(5))
	grid := geo.SquareGrid(100, 4)
	for trial := 0; trial < 20; trial++ {
		nt, nw := 1+rng.Intn(25), 1+rng.Intn(10)
		var tasks []market.Task
		for i := 0; i < nt; i++ {
			tasks = append(tasks, market.Task{
				ID: i, Origin: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Distance: 1 + rng.Float64()*5,
			})
		}
		var workers []market.Worker
		for i := 0; i < nw; i++ {
			workers = append(workers, market.Worker{
				ID: i, Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 15 + rng.Float64()*20,
			})
		}
		graph := market.BuildBipartite(tasks, workers)
		ctx := BuildContext(grid, 0, tasks, workers, graph)
		m, _ := NewMAPS(DefaultParams(), 2)
		// Seed moderate stats so supply allocation actually happens.
		for _, ct := range ctx.Cells {
			cs := m.CellStats(ct.Cell)
			for _, p := range cs.Ladder() {
				cs.Seed(p, 200, int(200*(1-p/6)))
			}
		}
		m.Prices(ctx)
		totalSupply := 0
		for _, n := range m.LastSupply {
			totalSupply += n
		}
		maxMatch := match.MaxCardinality(ctx.Graph).Size()
		if totalSupply > maxMatch {
			t.Fatalf("trial %d: supply %d > max matching %d", trial, totalSupply, maxMatch)
		}
	}
}

// TestMAPSPricesSteadyStateAllocs pins Prices' allocation budget once its
// arenas are warm: exactly one allocation, the returned price vector, with
// and without smoothing.
func TestMAPSPricesSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grid := geo.SquareGrid(100, 6)
	var tasks []market.Task
	for i := 0; i < 80; i++ {
		o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		tasks = append(tasks, market.Task{ID: i, Origin: o, Distance: 1 + rng.Float64()*5})
	}
	var workers []market.Worker
	for i := 0; i < 30; i++ {
		workers = append(workers, market.Worker{ID: i,
			Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Radius: 15})
	}
	ctx := BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	for _, w := range []float64{0, 0.3} {
		m, _ := NewMAPS(DefaultParams(), 2)
		m.Smoothing = w
		for _, ct := range ctx.Cells {
			cs := m.CellStats(ct.Cell)
			for _, p := range cs.Ladder() {
				cs.Seed(p, 500, int(500*(1-p/6)))
			}
		}
		m.Prices(ctx)
		if allocs := testing.AllocsPerRun(20, func() { m.Prices(ctx) }); allocs != 1 {
			t.Errorf("smoothing %v: %v allocations per steady-state Prices, want 1", w, allocs)
		}
	}
}

func TestMAPSEmptyPeriod(t *testing.T) {
	grid := geo.SquareGrid(10, 2)
	graph := market.BuildBipartite(nil, nil)
	ctx := BuildContext(grid, 0, nil, nil, graph)
	m, _ := NewMAPS(DefaultParams(), 2)
	if got := m.Prices(ctx); len(got) != 0 {
		t.Errorf("empty period priced %v", got)
	}
}

func TestMAPSNoWorkers(t *testing.T) {
	grid := geo.SquareGrid(10, 2)
	tasks := []market.Task{{ID: 0, Origin: geo.Point{X: 1, Y: 1}, Distance: 2}}
	graph := market.BuildBipartite(tasks, nil)
	ctx := BuildContext(grid, 0, tasks, nil, graph)
	m, _ := NewMAPS(DefaultParams(), 2.5)
	prices := m.Prices(ctx)
	// No supply anywhere: grid retires immediately at the base price.
	if prices[0] != 2.5 {
		t.Errorf("price = %v, want base price 2.5", prices[0])
	}
	if m.LastSupply[ctx.Tasks[0].Cell] != 0 {
		t.Error("supply should be zero without workers")
	}
}

func TestMAPSUnseenCellKeepsBasePrice(t *testing.T) {
	ctx := exampleContext(t)
	m, _ := NewMAPS(DefaultParams(), 2)
	prices := m.Prices(ctx) // no statistics at all
	for i, p := range prices {
		if p != 2 {
			t.Errorf("task %d priced %v, want base price 2 before any learning", i, p)
		}
	}
}

func TestMAPSObservePanicsOnMismatch(t *testing.T) {
	ctx := exampleContext(t)
	m, _ := NewMAPS(DefaultParams(), 2)
	defer func() {
		if recover() == nil {
			t.Error("mismatched Observe should panic")
		}
	}()
	m.Observe(ctx, []float64{1}, []bool{true})
}

func TestMAPSLearnsFromFeedback(t *testing.T) {
	// Online use: run many periods against a fixed hidden demand and check
	// the learned acceptance ratio converges near truth.
	ctx := exampleContext(t)
	m, _ := NewMAPS(Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}, 2)
	m.SetLadder([]float64{1, 2, 3})
	table := map[float64]float64{1: 0.9, 2: 0.8, 3: 0.5}
	rng := rand.New(rand.NewSource(31))
	const rounds, tail = 30000, 2000
	r3AtTwo := 0
	for round := 0; round < rounds; round++ {
		prices := m.Prices(ctx)
		accepted := make([]bool, len(prices))
		for i, p := range prices {
			accepted[i] = rng.Float64() < table[p]
		}
		m.Observe(ctx, prices, accepted)
		if round >= rounds-tail && prices[2] == 2 {
			r3AtTwo++
		}
	}
	// The grid-11 cell (r3, cell 10) has D/C = 1: its optimum is price 2
	// (1.6 vs 1.5 revenue). UCB should mostly play 2 late in the run.
	cs := m.CellStats(10)
	if n := cs.TriedAt(2); n == 0 {
		t.Fatal("price 2 never explored in cell 10")
	}
	if mean := cs.MeanAt(2); math.Abs(mean-0.8) > 0.1 {
		t.Errorf("learned S(2) = %v, want ~0.8", mean)
	}
	if frac := float64(r3AtTwo) / tail; frac < 0.6 {
		t.Errorf("r3 priced at 2 in only %.0f%% of the last %d rounds", frac*100, tail)
	}
}

func TestSDRPricing(t *testing.T) {
	ctx := exampleContext(t)
	s, err := NewSDR(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	prices := s.Prices(ctx)
	// Cell 8 (r1, r2): 2 tasks, 0 workers located in the cell => capped at pmax.
	if prices[0] != 5 || prices[1] != 5 {
		t.Errorf("starved cell priced %v/%v, want pmax 5", prices[0], prices[1])
	}
	// Cell 10 (r3): 1 task, 0 workers in cell => also starved.
	if prices[2] != 5 {
		t.Errorf("r3 priced %v, want 5", prices[2])
	}
	s.Observe(ctx, prices, make([]bool, 3))
}

func TestSDRBalancedUsesBase(t *testing.T) {
	grid := geo.SquareGrid(10, 1)
	tasks := []market.Task{{ID: 0, Origin: geo.Point{X: 5, Y: 5}, Distance: 1}}
	workers := []market.Worker{
		{ID: 0, Loc: geo.Point{X: 5, Y: 5}, Radius: 5},
		{ID: 1, Loc: geo.Point{X: 6, Y: 5}, Radius: 5},
	}
	ctx := BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	s, _ := NewSDR(DefaultParams(), 2)
	if p := s.Prices(ctx)[0]; p != 2 {
		t.Errorf("balanced market priced %v, want base 2", p)
	}
	// Imbalanced: 3 tasks 1 worker => 0.5 * 2 * 3/1 = 3.
	tasks = append(tasks,
		market.Task{ID: 1, Origin: geo.Point{X: 4, Y: 5}, Distance: 1},
		market.Task{ID: 2, Origin: geo.Point{X: 5, Y: 4}, Distance: 1})
	workers = workers[:1]
	ctx = BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	if p := s.Prices(ctx)[0]; p != 3 {
		t.Errorf("imbalanced market priced %v, want 3", p)
	}
}

func TestSDEPricing(t *testing.T) {
	grid := geo.SquareGrid(10, 1)
	tasks := []market.Task{
		{ID: 0, Origin: geo.Point{X: 5, Y: 5}, Distance: 1},
		{ID: 1, Origin: geo.Point{X: 4, Y: 5}, Distance: 1},
		{ID: 2, Origin: geo.Point{X: 5, Y: 4}, Distance: 1},
	}
	workers := []market.Worker{{ID: 0, Loc: geo.Point{X: 5, Y: 5}, Radius: 5}}
	ctx := BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	s, err := NewSDE(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// |W|-|R| = -2: p = 2 * (1 + 2 e^{-2}) ~ 2.54.
	want := 2 * (1 + 2*math.Exp(-2))
	if p := s.Prices(ctx)[0]; math.Abs(p-want) > 1e-9 {
		t.Errorf("SDE price = %v, want %v", p, want)
	}
	// Balanced market: base price.
	workers = append(workers, market.Worker{ID: 1, Loc: geo.Point{X: 6, Y: 5}, Radius: 5},
		market.Worker{ID: 2, Loc: geo.Point{X: 5, Y: 6}, Radius: 5})
	ctx = BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	if p := s.Prices(ctx)[0]; p != 2 {
		t.Errorf("balanced SDE price = %v, want 2", p)
	}
	s.Observe(ctx, s.Prices(ctx), make([]bool, 3))
}

func TestCappedUCBLearnsSingleMarket(t *testing.T) {
	// One grid, plentiful supply: CappedUCB should converge to the Myerson
	// rung of the ladder, like any UCB pricer in a single market.
	grid := geo.SquareGrid(10, 1)
	var tasks []market.Task
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		tasks = append(tasks, market.Task{
			ID: i, Origin: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}, Distance: 1,
		})
	}
	var workers []market.Worker
	for i := 0; i < 40; i++ {
		workers = append(workers, market.Worker{
			ID: i, Loc: geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}, Radius: 15,
		})
	}
	ctx := BuildContext(grid, 0, tasks, workers, market.BuildBipartite(tasks, workers))
	c, err := NewCappedUCB(DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := stats.TruncNormal{Mu: 2, Sigma: 1, Lo: 1, Hi: 5}
	for round := 0; round < 500; round++ {
		prices := c.Prices(ctx)
		accepted := make([]bool, len(prices))
		for i, p := range prices {
			accepted[i] = p <= d.Sample(rng)
		}
		c.Observe(ctx, prices, accepted)
	}
	// The best rung on the ladder for this demand curve:
	ladder, _ := stats.PriceLadder(1, 5, 0.5)
	best, bestRev := ladder[0], -1.0
	for _, p := range ladder {
		if rev := stats.RevenueAt(d, p); rev > bestRev {
			best, bestRev = p, rev
		}
	}
	final := c.Prices(ctx)[0]
	if math.Abs(final-best) > 0.8 {
		t.Errorf("CappedUCB converged to %v, Myerson rung is %v", final, best)
	}
}

func TestBuildContextGrouping(t *testing.T) {
	ctx := exampleContext(t)
	if len(ctx.Cells) != 2 || ctx.Cells[0].Cell != 8 || ctx.Cells[1].Cell != 10 {
		t.Fatalf("cells = %v, want groups for cells 8 and 10, ascending", ctx.Cells)
	}
	g9 := ctx.Cells[0].Tasks
	if len(g9) != 2 {
		t.Fatalf("cell 8 has %d tasks, want 2", len(g9))
	}
	// Distance-descending: r1 (1.3) before r2 (0.7).
	if ctx.Tasks[g9[0]].Distance != 1.3 || ctx.Tasks[g9[1]].Distance != 0.7 {
		t.Errorf("cell 8 order wrong: %v then %v",
			ctx.Tasks[g9[0]].Distance, ctx.Tasks[g9[1]].Distance)
	}
	if len(ctx.Cells[1].Tasks) != 1 {
		t.Errorf("cell 10 tasks = %v, want 1", ctx.Cells[1].Tasks)
	}
}

func exampleTruncNormal() stats.Dist {
	return stats.TruncNormal{Mu: 2, Sigma: 1, Lo: 1, Hi: 5}
}
