// Benchmarks regenerating the paper's evaluation, one per figure column
// (see the experiment index in EXPERIMENTS.md). Each benchmark measures the
// full simulation of the most expensive strategy (MAPS) on the swept
// workload and reports its revenue, plus the revenue of the strongest
// unified-price baseline (BaseP), as benchmark metrics. Populations are
// scaled down (benchScale) so iterations stay in the tens of milliseconds;
// run `go run ./cmd/experiments -exp all` for paper-scale tables.
package spatialcrowd_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/pworld"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/window"
	"spatialcrowd/internal/workload"
)

// benchScale divides the paper's population sizes for benchmark iterations.
const benchScale = 40

func scaled(n int) int {
	if n/benchScale < 1 {
		return 1
	}
	return n / benchScale
}

// benchOracle adapts a valuation model for calibration.
type benchOracle struct {
	model market.ValuationModel
	rng   *rand.Rand
}

func (o *benchOracle) Probe(cell int, price float64) bool {
	return price <= o.model.Dist(cell).Sample(o.rng)
}

// benchWorkload runs the five-strategy comparison on the given instance:
// MAPS inside the timed loop, baselines once for the reported metrics.
func benchWorkload(b *testing.B, in *market.Instance, model market.ValuationModel) {
	b.Helper()
	params := core.DefaultParams()
	basep, err := core.NewBaseP(params)
	if err != nil {
		b.Fatal(err)
	}
	oracle := &benchOracle{model: model, rng: rand.New(rand.NewSource(1))}
	if err := basep.Calibrate(oracle, in.Grid.NumCells(), 300); err != nil {
		b.Fatal(err)
	}
	pb := basep.BasePrice()

	baseRes, err := sim.Run(in, basep, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}

	var mapsRevenue float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewMAPS(params, pb)
		if err != nil {
			b.Fatal(err)
		}
		basep.WarmStart(m.CellStats)
		res, err := sim.Run(in, m, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		mapsRevenue = res.Revenue
	}
	b.StopTimer()
	b.ReportMetric(mapsRevenue, "maps-revenue")
	b.ReportMetric(baseRes.Revenue, "basep-revenue")
}

func benchSynthetic(b *testing.B, mutate func(*workload.SyntheticConfig)) {
	b.Helper()
	cfg := workload.SyntheticConfig{
		Workers:  scaled(5000),
		Requests: scaled(20000),
		Seed:     42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	in, model, err := workload.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkload(b, in, model)
}

// BenchmarkFig6Workers is E1: revenue/time/memory vs |W| (Fig. 6 a/e/i).
func BenchmarkFig6Workers(b *testing.B) {
	for _, w := range []int{1250, 5000, 10000} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.Workers = scaled(w) })
		})
	}
}

// BenchmarkFig6Requests is E2: vs |R| (Fig. 6 b/f/j).
func BenchmarkFig6Requests(b *testing.B) {
	for _, r := range []int{5000, 20000, 40000} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.Requests = scaled(r) })
		})
	}
}

// BenchmarkFig6TemporalMu is E3: vs temporal mean (Fig. 6 c/g/k).
func BenchmarkFig6TemporalMu(b *testing.B) {
	for _, mu := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("mu=%g", mu), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.TemporalMu = mu })
		})
	}
}

// BenchmarkFig6SpatialMean is E4: vs spatial mean (Fig. 6 d/h/l).
func BenchmarkFig6SpatialMean(b *testing.B) {
	for _, m := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("mean=%g", m), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.SpatialMean = m })
		})
	}
}

// BenchmarkFig7DemandMu is E5: vs demand mean (Fig. 7 a/e/i).
func BenchmarkFig7DemandMu(b *testing.B) {
	for _, mu := range []float64{1.0, 2.0, 3.0} {
		b.Run(fmt.Sprintf("mu=%g", mu), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.DemandMu = mu })
		})
	}
}

// BenchmarkFig7DemandSigma is E6: vs demand sigma (Fig. 7 b/f/j).
func BenchmarkFig7DemandSigma(b *testing.B) {
	for _, s := range []float64{0.5, 1.0, 2.5} {
		b.Run(fmt.Sprintf("sigma=%g", s), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.DemandSigma = s })
		})
	}
}

// BenchmarkFig7Periods is E7: vs T (Fig. 7 c/g/k).
func BenchmarkFig7Periods(b *testing.B) {
	for _, t := range []int{200, 400, 1000} {
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.Periods = t })
		})
	}
}

// BenchmarkFig7Grids is E8: vs G (Fig. 7 d/h/l).
func BenchmarkFig7Grids(b *testing.B) {
	for _, side := range []int{5, 10, 25} {
		b.Run(fmt.Sprintf("G=%d", side*side), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.GridSide = side })
		})
	}
}

// BenchmarkFig8Radius is E9: vs worker radius (Fig. 8 a/e/i).
func BenchmarkFig8Radius(b *testing.B) {
	for _, r := range []float64{5, 10, 25} {
		b.Run(fmt.Sprintf("aw=%g", r), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) { c.Radius = r })
		})
	}
}

// BenchmarkFig8Scalability is E10: |W| = |R| growth (Fig. 8 b/f/j).
func BenchmarkFig8Scalability(b *testing.B) {
	for _, n := range []int{100000, 300000, 500000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) {
				c.Workers = scaled(n)
				c.Requests = scaled(n)
			})
		})
	}
}

func benchBeijing(b *testing.B, variant workload.BeijingVariant) {
	b.Helper()
	for _, d := range []int{5, 15, 25} {
		b.Run(fmt.Sprintf("dw=%d", d), func(b *testing.B) {
			in, model, err := workload.BeijingLike(workload.BeijingConfig{
				Variant: variant, WorkerDuration: d, Scale: benchScale, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchWorkload(b, in, model)
		})
	}
}

// BenchmarkFig8Beijing1 is E11: Beijing-like rush dataset (Fig. 8 c/g/k).
func BenchmarkFig8Beijing1(b *testing.B) { benchBeijing(b, workload.BeijingRush) }

// BenchmarkFig8Beijing2 is E12: Beijing-like night dataset (Fig. 8 d/h/l).
func BenchmarkFig8Beijing2(b *testing.B) { benchBeijing(b, workload.BeijingNight) }

// BenchmarkFig10ExpRate is E13: exponential demand (Fig. 10).
func BenchmarkFig10ExpRate(b *testing.B) {
	for _, a := range []float64{0.5, 1.0, 1.5} {
		b.Run(fmt.Sprintf("alpha=%g", a), func(b *testing.B) {
			benchSynthetic(b, func(c *workload.SyntheticConfig) {
				c.Demand = workload.DemandExponential
				c.ExpRate = a
			})
		})
	}
}

// --- Micro-benchmarks of the algorithmic building blocks ---

// BenchmarkMaxWeightMatching measures the revenue-defining matching on a
// mid-sized accepted subgraph (Definition 5).
func BenchmarkMaxWeightMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const nt, nw = 500, 200
	g := match.NewGraph(nt, nw)
	weights := make([]float64, nt)
	for l := 0; l < nt; l++ {
		weights[l] = rng.Float64() * 100
		for r := 0; r < nw; r++ {
			if rng.Float64() < 0.05 {
				g.AddEdge(l, r)
			}
		}
	}
	sc := &match.MaxWeightScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.MaxWeightByLeftScratch(g, weights, sc)
	}
}

// BenchmarkMAPSPricesOnePeriod isolates Algorithm 2 on one period's batch.
// "sparse" (200 tasks, 60 workers of radius 10, about 2 edges per task) is
// the overhead guard for the pre-matcher's bookkeeping. "dense" is shaped
// like a dense-grid window (600 tasks, 100 workers of radius 14, about 6
// edges per task), where the augmenting-path search dominates.
func BenchmarkMAPSPricesOnePeriod(b *testing.B) {
	for _, c := range []struct {
		name   string
		nt, nw int
		radius float64
	}{{"sparse", 200, 60, 10}, {"dense", 600, 100, 14}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			grid := geo.SquareGrid(100, 10)
			tasks := make([]market.Task, c.nt)
			for i := range tasks {
				o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				d := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				tasks[i] = market.Task{ID: i, Origin: o, Dest: d, Distance: o.Dist(d)}
			}
			workers := make([]market.Worker, c.nw)
			for i := range workers {
				workers[i] = market.Worker{ID: i,
					Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
					Radius: c.radius}
			}
			graph := market.BuildBipartite(tasks, workers)
			ctx := core.BuildContext(grid, 0, tasks, workers, graph)
			m, err := core.NewMAPS(core.DefaultParams(), 2)
			if err != nil {
				b.Fatal(err)
			}
			for _, ct := range ctx.Cells {
				cs := m.CellStats(ct.Cell)
				for _, p := range cs.Ladder() {
					cs.Seed(p, 500, int(500*(1-p/6)))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Prices(ctx)
			}
		})
	}
}

// BenchmarkBipartiteBuild measures indexed graph construction, the hot path
// of every simulated period: the cell-index builder with and without the
// reusable scratch arena, and the worker index rebuilt over the pool and
// queried into a reused graph (the streaming engine's steady-state
// construction), read in full and read one entry per task.
func BenchmarkBipartiteBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := &market.Instance{Grid: geo.SquareGrid(100, 10), Periods: 1}
	const nt, nw = 500, 2000
	tasks := make([]market.Task, nt)
	for i := range tasks {
		tasks[i] = market.Task{ID: i, Origin: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
	}
	workers := make([]market.Worker, nw)
	for i := range workers {
		workers[i] = market.Worker{ID: i,
			Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Radius: 10}
	}
	b.Run("cell-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			market.BuildBipartiteCellIndexScratch(in.Spatial(), tasks, workers, nil)
		}
	})
	b.Run("cell-scratch", func(b *testing.B) {
		sc := &market.CellIndexScratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			market.BuildBipartiteCellIndexScratch(in.Spatial(), tasks, workers, sc)
		}
	})
	// The worker index builds a lazy graph; index reads every list to the
	// end, which is what a saturated window's failed searches do.
	b.Run("index", func(b *testing.B) {
		var ix market.WorkerIndex
		g := match.NewGraph(0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Reindex(workers)
			ix.BuildGraphInto(tasks, g)
			for l := range tasks {
				g.Adj(l)
			}
		}
	})
	// index-first is a city-steady-shaped window: 14 tasks against a pool
	// of 2300 workers, about 370 candidates each, and a search per task that
	// stops at its first candidate, as it does when most of the fleet is
	// idle.
	b.Run("index-first", func(b *testing.B) {
		rng := rand.New(rand.NewSource(13))
		tasks := make([]market.Task, 14)
		for i := range tasks {
			tasks[i] = market.Task{ID: i, Origin: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
		}
		workers := make([]market.Worker, 2300)
		for i := range workers {
			workers[i] = market.Worker{ID: i,
				Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 25}
		}
		var ix market.WorkerIndex
		g := match.NewGraph(0, 0)
		inc := match.NewIncremental(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Reindex(workers)
			ix.BuildGraphInto(tasks, g)
			inc.Reset(g)
			for l := range tasks {
				inc.TryAugment(l)
			}
		}
		for l := range tasks {
			g.Adj(l)
		}
		b.ReportMetric(float64(g.NumEdges())/float64(len(tasks)), "edges/task")
	})
}

// BenchmarkPossibleWorldExact measures the exact expected-revenue
// enumeration at its practical limit.
func BenchmarkPossibleWorldExact(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const nt, nw = 14, 6
	g := match.NewGraph(nt, nw)
	probs := make([]float64, nt)
	weights := make([]float64, nt)
	for l := 0; l < nt; l++ {
		probs[l] = rng.Float64()
		weights[l] = rng.Float64() * 10
		for r := 0; r < nw; r++ {
			if rng.Float64() < 0.4 {
				g.AddEdge(l, r)
			}
		}
	}
	w := &pworld.World{Graph: g, AcceptProb: probs, Weight: weights}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pworld.ExpectedRevenueExact(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures the streaming dispatch engine on the
// benchmark-scale synthetic replay (the workload of cmd/serve's default,
// scaled like every other benchmark here) and reports sustained events/sec
// alongside the engine's revenue, so future PRs track dispatch throughput
// next to the figure benchmarks.
func BenchmarkEngineThroughput(b *testing.B) {
	in, model, err := workload.Synthetic(workload.SyntheticConfig{
		Workers:  scaled(5000),
		Requests: scaled(20000),
		Seed:     42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	basep, err := core.NewBaseP(params)
	if err != nil {
		b.Fatal(err)
	}
	oracle := &benchOracle{model: model, rng: rand.New(rand.NewSource(1))}
	if err := basep.Calibrate(oracle, in.Grid.NumCells(), 300); err != nil {
		b.Fatal(err)
	}
	pb := basep.BasePrice()

	var events int64
	var revenue float64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewMAPS(params, pb)
		if err != nil {
			b.Fatal(err)
		}
		basep.WarmStart(m.CellStats)
		eng, err := engine.New(engine.Config{
			Grid: in.Grid, Strategy: m, AutoDecide: true,
			OnDecision: func(engine.Decision) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Replay(eng, in); err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		st := eng.Stats()
		events += st.Events
		revenue = st.Revenue
		elapsed += st.Elapsed
	}
	b.StopTimer()
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/s")
	}
	b.ReportMetric(revenue, "engine-revenue")
}

// lowChurnFixture fabricates the workload the amortized-rebuild layer
// targets: a large long-lived worker fleet and a demand pattern that repeats
// window over window under fresh task IDs. mutateChurn relocates a small,
// deterministic slice of the fleet — the "low churn" between consecutive
// windows of a quiet shard.
func lowChurnFixture() (protoTasks []market.Task, workers []market.Worker, grid geo.Grid) {
	rng := rand.New(rand.NewSource(29))
	grid = geo.SquareGrid(100, 10)
	protoTasks = make([]market.Task, 100)
	for i := range protoTasks {
		o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		d := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		protoTasks[i] = market.Task{Origin: o, Dest: d, Distance: o.Dist(d), Valuation: 5}
	}
	workers = make([]market.Worker, 4000)
	for i := range workers {
		workers[i] = market.Worker{
			ID:  i + 1,
			Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			// Long-lived fleet: duration never lapses within the run.
			Radius: 10, Duration: 1 << 20,
		}
	}
	return protoTasks, workers, grid
}

// mutateChurn deterministically relocates ~2% of the fleet for the given
// window — identical across benchmark legs, so fresh and cached runs see the
// same pool history.
func mutateChurn(workers []market.Worker, win int) {
	for k := 0; k < len(workers)/50; k++ {
		idx := (win*37 + k*101) % len(workers)
		workers[idx].Loc = geo.Point{
			X: float64((idx*13 + win*7 + k) % 100),
			Y: float64((idx*19 + win*3 + 2*k) % 100),
		}
	}
}

// runLowChurnWindows drives one executor through the fixture for the given
// number of windows — repeating demand with fresh task IDs, churn touching
// the fleet every tenth window — and returns the accrued revenue.
func runLowChurnWindows(x *window.Executor, strat core.Strategy,
	protoTasks []market.Task, workers []market.Worker, windows int, b *testing.B) float64 {
	tasks := make([]market.Task, len(protoTasks))
	revenue := 0.0
	for win := 0; win < windows; win++ {
		if win%10 == 5 {
			mutateChurn(workers, win)
		}
		copy(tasks, protoTasks)
		for j := range tasks {
			tasks[j].ID = win*len(tasks) + j + 1 // fresh identity, repeated content
			tasks[j].Period = win
		}
		pr, err := x.Price(strat, win, tasks, workers)
		if err != nil {
			b.Fatal(err)
		}
		out := x.ResolveImmediate(strat, pr, tasks)
		revenue += out.Revenue
	}
	return revenue
}

// BenchmarkLowChurnWindow measures the full window pipeline (price -> accept
// -> assign) on the low-churn fixture with the amortized-rebuild layer off
// (fresh) and on (cached). The fixture is the layer's home turf — most
// windows fingerprint identically to their predecessor — and the two paths
// are first checked to accrue bit-identical revenue before either is timed.
func BenchmarkLowChurnWindow(b *testing.B) {
	protoTasks, protoWorkers, grid := lowChurnFixture()
	mkStrat := func() core.Strategy {
		s, err := core.NewSDR(core.DefaultParams(), 2)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	mkPool := func() []market.Worker {
		p := make([]market.Worker, len(protoWorkers))
		copy(p, protoWorkers)
		return p
	}

	// Transparency check before timing: same windows, same churn history,
	// revenue must match to the bit.
	fresh := window.NewExecutor(grid, window.GraphKD)
	cached := window.NewExecutor(grid, window.GraphKD)
	cached.SetAmortize(true)
	const checkWindows = 50
	revFresh := runLowChurnWindows(fresh, mkStrat(), protoTasks, mkPool(), checkWindows, b)
	revCached := runLowChurnWindows(cached, mkStrat(), protoTasks, mkPool(), checkWindows, b)
	if revFresh != revCached || revFresh <= 0 {
		b.Fatalf("cached revenue %.12f != fresh %.12f over %d windows", revCached, revFresh, checkWindows)
	}

	b.Run("fresh", func(b *testing.B) {
		x := window.NewExecutor(grid, window.GraphKD)
		strat := mkStrat()
		pool := mkPool()
		b.ReportAllocs()
		b.ResetTimer()
		runLowChurnWindows(x, strat, protoTasks, pool, b.N, b)
	})
	b.Run("cached", func(b *testing.B) {
		x := window.NewExecutor(grid, window.GraphKD)
		x.SetAmortize(true)
		strat := mkStrat()
		pool := mkPool()
		b.ReportAllocs()
		b.ResetTimer()
		runLowChurnWindows(x, strat, protoTasks, pool, b.N, b)
		b.StopTimer()
		st := x.CacheStats()
		if total := st.CtxHits + st.CtxMisses; total > 0 {
			b.ReportMetric(float64(st.CtxHits)/float64(total), "ctx-hit-rate")
		}
	})
}

// BenchmarkWorkerIndexBuild isolates the per-window cost of the worker
// index on the low-churn fixture: one rebuild of the 4000-worker pool after
// ~2% of it moved. A build costs the same whatever moved, so this one number
// stands where the reindex-versus-incremental pair used to.
func BenchmarkWorkerIndexBuild(b *testing.B) {
	_, protoWorkers, _ := lowChurnFixture()
	workers := make([]market.Worker, len(protoWorkers))
	copy(workers, protoWorkers)
	ix := market.NewWorkerIndex(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutateChurn(workers, i)
		ix.Reindex(workers)
	}
}
