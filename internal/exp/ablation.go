package exp

import (
	"fmt"
	"io"
	"math/rand"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/pworld"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/stats"
	"spatialcrowd/internal/workload"
)

// AblationResult is one named variant's score in an ablation comparison.
type AblationResult struct {
	Variant string
	Revenue float64
	Note    string
}

// seedFromModel installs near-exact acceptance statistics from the hidden
// model into a MAPS strategy — the "oracle demand" variant that separates
// MAPS's supply optimization from its UCB learning.
func seedFromModel(m *core.MAPS, model market.ValuationModel, numCells int) {
	const weight = 200000
	for cell := 0; cell < numCells; cell++ {
		cs := m.CellStats(cell)
		d := model.Dist(cell)
		for _, p := range cs.Ladder() {
			acc := int(float64(weight) * stats.Accept(d, p))
			cs.Seed(p, weight, acc)
		}
	}
}

// AblationOracleDemand (A1) compares full MAPS (online UCB learning) with
// MAPS seeded by the true acceptance ratios. The gap measures how much
// revenue the learning component gives up against a demand oracle.
func (r *Runner) AblationOracleDemand() ([]AblationResult, error) {
	cfg := workload.SyntheticConfig{
		Workers:  r.scaled(5000),
		Requests: r.scaled(20000),
		Seed:     r.Seed,
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	strategies, pb, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}
	learned := strategies[0] // MAPS

	oracleMAPS, err := core.NewMAPS(r.Sim.Params, pb)
	if err != nil {
		return nil, err
	}
	seedFromModel(oracleMAPS, model, in.Grid.NumCells())

	out := make([]AblationResult, 0, 2)
	for _, v := range []struct {
		name string
		s    core.Strategy
		note string
	}{
		{"MAPS (learned demand)", learned, "UCB online estimation"},
		{"MAPS (oracle demand)", oracleMAPS, "true S(p) pre-seeded"},
	} {
		res, err := sim.Run(in, v.s, r.Sim)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Variant: v.name, Revenue: res.Revenue, Note: v.note})
	}
	return out, nil
}

// AblationNoMatching (A2) compares full MAPS against a variant whose supply
// allocation ignores the bipartite matching validation, i.e. treats supply
// as independent per grid — the modelling error the paper attributes to
// per-grid baselines.
func (r *Runner) AblationNoMatching() ([]AblationResult, error) {
	cfg := workload.SyntheticConfig{
		Workers:  r.scaled(2500), // scarce supply: dependence matters most
		Requests: r.scaled(20000),
		Seed:     r.Seed,
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	_, pb, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}

	out := make([]AblationResult, 0, 2)
	for _, variant := range []bool{false, true} {
		m, err := core.NewMAPS(r.Sim.Params, pb)
		if err != nil {
			return nil, err
		}
		seedFromModel(m, model, in.Grid.NumCells())
		var s core.Strategy = m
		if variant {
			s = independentSupply{m}
		}
		res, err := sim.Run(in, s, r.Sim)
		if err != nil {
			return nil, err
		}
		name, note := "MAPS (with matching)", "augmenting-path validated supply"
		if variant {
			name, note = "MAPS (no matching)", "per-grid independent supply"
		}
		out = append(out, AblationResult{Variant: name, Revenue: res.Revenue, Note: note})
	}
	return out, nil
}

// independentSupply is A2's variant: MAPS pricing a context whose graph
// gives every task a private worker. Every augmenting-path validation then
// succeeds exactly while the grid has a task without supply, so each grid
// may claim up to |R^tg| workers regardless of the real bipartite
// structure, as if supply were independent across grids. The realized
// assignment still runs on the real graph.
type independentSupply struct{ *core.MAPS }

// Prices implements core.Strategy.
func (s independentSupply) Prices(ctx *core.PeriodContext) []float64 {
	private := *ctx
	private.Graph = match.NewGraph(len(ctx.Tasks), len(ctx.Tasks))
	for i := range ctx.Tasks {
		private.Graph.AddEdge(i, i)
	}
	return s.MAPS.Prices(&private)
}

// GapResult reports the A3 optimality study on one tiny instance.
type GapResult struct {
	Instance  int
	MAPSValue float64 // exact E[U] of the prices MAPS chose
	OptValue  float64 // exact E[U] of the best per-grid ladder prices
	Ratio     float64
}

// AblationOptimalityGap (A3) measures MAPS against the exhaustive optimum on
// tiny single-period instances where the expected revenue can be computed
// exactly by possible-world enumeration. Theorem 8 promises (1 - 1/e) on the
// approximation L; empirically the ratio on E[U] is usually far better.
func (r *Runner) AblationOptimalityGap(instances int) ([]GapResult, error) {
	if instances <= 0 {
		instances = 10
	}
	rng := rand.New(rand.NewSource(r.Seed + 7))
	params := r.Sim.Params
	grid := geo.SquareGrid(20, 2) // 4 cells
	ladder, err := stats.PriceLadder(params.PMin, params.PMax, params.Alpha)
	if err != nil {
		return nil, err
	}
	const mapsBase = 2.0
	// MAPS may retire a grid at its base price, which is not a ladder rung;
	// the exhaustive optimum must range over the same candidate set.
	candidates := append(append([]float64(nil), ladder...), mapsBase)

	var out []GapResult
	for inst := 0; inst < instances; inst++ {
		// 4-8 tasks, 2-4 workers, known per-cell demand.
		nt := 4 + rng.Intn(5)
		nw := 2 + rng.Intn(3)
		model := market.PerCellModel{Default: stats.TruncNormal{Mu: 1.5 + 2*rng.Float64(), Sigma: 1, Lo: 1, Hi: 5}}
		model.Cells = map[int]stats.Dist{}
		for c := 0; c < grid.NumCells(); c++ {
			model.Cells[c] = stats.TruncNormal{Mu: 1.2 + 2.5*rng.Float64(), Sigma: 1, Lo: 1, Hi: 5}
		}
		tasks := make([]market.Task, nt)
		for i := range tasks {
			tasks[i] = market.Task{
				ID:       i,
				Origin:   geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20},
				Distance: 0.5 + rng.Float64()*4,
			}
		}
		workers := make([]market.Worker, nw)
		for i := range workers {
			workers[i] = market.Worker{
				ID:     i,
				Loc:    geo.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20},
				Radius: 4 + rng.Float64()*8,
			}
		}
		graph := market.BuildBipartite(tasks, workers)
		ctx := core.BuildContext(grid, 0, tasks, workers, graph)

		m, err := core.NewMAPS(params, mapsBase)
		if err != nil {
			return nil, err
		}
		seedFromModel(m, model, grid.NumCells())
		prices := m.Prices(ctx)

		evalPrices := func(ps []float64) (float64, error) {
			probs := make([]float64, nt)
			weights := make([]float64, nt)
			for i := range tasks {
				cell := grid.CellOf(tasks[i].Origin)
				probs[i] = stats.Accept(model.Dist(cell), ps[i])
				weights[i] = tasks[i].Distance * ps[i]
			}
			return pworld.ExpectedRevenueExact(&pworld.World{
				Graph: graph, AcceptProb: probs, Weight: weights,
			})
		}
		mapsVal, err := evalPrices(prices)
		if err != nil {
			return nil, err
		}

		// Exhaustive optimum over per-cell ladder assignments.
		cells := make([]int, 0, 4)
		seen := map[int]bool{}
		for i := range tasks {
			c := grid.CellOf(tasks[i].Origin)
			if !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		best := 0.0
		assign := make(map[int]float64, len(cells))
		var recurse func(k int) error
		recurse = func(k int) error {
			if k == len(cells) {
				ps := make([]float64, nt)
				for i := range tasks {
					ps[i] = assign[grid.CellOf(tasks[i].Origin)]
				}
				v, err := evalPrices(ps)
				if err != nil {
					return err
				}
				if v > best {
					best = v
				}
				return nil
			}
			for _, p := range candidates {
				assign[cells[k]] = p
				if err := recurse(k + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := recurse(0); err != nil {
			return nil, err
		}

		ratio := 1.0
		if best > 0 {
			ratio = mapsVal / best
		}
		out = append(out, GapResult{Instance: inst, MAPSValue: mapsVal, OptValue: best, Ratio: ratio})
	}
	return out, nil
}

// LadderPoint reports the A4 base-price ladder sensitivity at one alpha.
type LadderPoint struct {
	Alpha float64
	// Achieved is p_m*S(p_m) / p* S(p*), the empirical counterpart of
	// Theorem 3's (1 - alpha) guarantee.
	Achieved float64
	Bound    float64
}

// AblationLadderAlpha (A4) sweeps the ladder step alpha and reports the
// achieved fraction of the continuous-optimum revenue against Theorem 3's
// (1 - alpha) bound.
func (r *Runner) AblationLadderAlpha() ([]LadderPoint, error) {
	alphas := []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	d := stats.TruncNormal{Mu: 2, Sigma: 1, Lo: 1, Hi: 5}
	var out []LadderPoint
	for _, a := range alphas {
		params := r.Sim.Params
		params.Alpha = a
		b, err := Calibrate(params, market.UniformModel{D: d}, 1, 0, r.Seed)
		if err != nil {
			return nil, err
		}
		pm := b.Reserves()[0]
		pstar := stats.MyersonReserve(d, params.PMin, params.PMax)
		out = append(out, LadderPoint{
			Alpha:    a,
			Achieved: stats.RevenueAt(d, pm) / stats.RevenueAt(d, pstar),
			Bound:    1 - a,
		})
	}
	return out, nil
}

// WriteAblation renders ablation results as a small table.
func WriteAblation(w io.Writer, title string, rows []AblationResult) {
	fmt.Fprintln(w, title)
	for _, row := range rows {
		fmt.Fprintf(w, "  %-26s revenue=%.4g  (%s)\n", row.Variant, row.Revenue, row.Note)
	}
}

// gapProbe wraps MAPS and records the largest neighboring-grid price gap
// seen over the whole run.
type gapProbe struct {
	*core.MAPS
	maxGap float64
}

// Prices implements core.Strategy.
func (g *gapProbe) Prices(ctx *core.PeriodContext) []float64 {
	out := g.MAPS.Prices(ctx)
	if gap := core.PriceGap(ctx.Space, g.MAPS.LastPrices); gap > g.maxGap {
		g.maxGap = gap
	}
	return out
}

// AblationSmoothing (A5) measures the revenue cost of spatial price
// smoothing (Section 4.2.3's practical note): platforms trade a little
// revenue for spatially stable prices. It also reports the worst
// neighboring-grid price gap each weight leaves over the run.
func (r *Runner) AblationSmoothing() ([]AblationResult, error) {
	cfg := workload.SyntheticConfig{
		Workers:  r.scaled(5000),
		Requests: r.scaled(20000),
		Seed:     r.Seed,
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	_, pb, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, w := range []float64{0, 0.25, 0.5} {
		m, err := core.NewMAPS(r.Sim.Params, pb)
		if err != nil {
			return nil, err
		}
		m.Smoothing = w
		seedFromModel(m, model, in.Grid.NumCells())
		probe := &gapProbe{MAPS: m}
		res, err := sim.Run(in, probe, r.Sim)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant: fmt.Sprintf("MAPS smoothing w=%.2f", w),
			Revenue: res.Revenue,
			Note:    fmt.Sprintf("max neighbor price gap %.2f", probe.maxGap),
		})
	}
	return out, nil
}

// AblationParametricDemand (A6) compares the paper's nonparametric UCB
// demand estimation against a parametric logistic fit (logitMAPS).
// The logistic fit shares strength across prices but is biased whenever the
// true acceptance curve is not logistic.
func (r *Runner) AblationParametricDemand() ([]AblationResult, error) {
	cfg := workload.SyntheticConfig{
		Workers:  r.scaled(5000),
		Requests: r.scaled(20000),
		Seed:     r.Seed,
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	strategies, pb, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}
	ucb := strategies[0] // warm-started MAPS

	logit, err := newLogitMAPS(r.Sim.Params, pb, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}

	var out []AblationResult
	for _, v := range []struct {
		s    core.Strategy
		note string
	}{
		{ucb, "nonparametric per-rung UCB (the paper's choice)"},
		{logit, "online logistic regression fit"},
	} {
		res, err := sim.Run(in, v.s, r.Sim)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Variant: v.s.Name(), Revenue: res.Revenue, Note: v.note})
	}
	return out, nil
}

// AblationRepositioning (A7) measures the supply response the paper's
// practical note (i) anticipates: when idle workers drift toward
// higher-priced neighboring grids, MAPS's surge prices actively rebalance
// the market. Durations above one period are required for drift to matter.
func (r *Runner) AblationRepositioning() ([]AblationResult, error) {
	cfg := workload.SyntheticConfig{
		Workers:        r.scaled(2500), // scarce supply: rebalancing matters
		Requests:       r.scaled(20000),
		WorkerDuration: 5, // idle workers survive long enough to move
		Seed:           r.Seed,
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		return nil, err
	}
	_, pb, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for _, speed := range []float64{0, 2, 5} {
		m, err := core.NewMAPS(r.Sim.Params, pb)
		if err != nil {
			return nil, err
		}
		seedFromModel(m, model, in.Grid.NumCells())
		simCfg := r.Sim
		simCfg.RepositionSpeed = speed
		res, err := sim.Run(in, m, simCfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Variant: fmt.Sprintf("MAPS reposition speed=%g", speed),
			Revenue: res.Revenue,
			Note:    fmt.Sprintf("served %d of %d accepted", res.Served, res.Accepted),
		})
	}
	return out, nil
}
