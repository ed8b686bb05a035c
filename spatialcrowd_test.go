package spatialcrowd_test

import (
	"fmt"
	"math"
	"testing"

	"spatialcrowd"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/stats"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := spatialcrowd.SyntheticConfig{
		Workers: 200, Requests: 1000, Periods: 50, GridSide: 4, Seed: 1,
	}
	instance, model, err := spatialcrowd.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := spatialcrowd.DefaultParams()

	base, err := spatialcrowd.NewBaseP(params)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spatialcrowd.OracleFromModel(model, 7)
	if err := base.Calibrate(oracle, instance.Grid.NumCells(), 100); err != nil {
		t.Fatal(err)
	}

	maps, err := spatialcrowd.NewMAPS(params, base.BasePrice())
	if err != nil {
		t.Fatal(err)
	}
	base.WarmStart(maps.CellStats)

	res, err := spatialcrowd.Run(instance, maps, spatialcrowd.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Revenue <= 0 || res.Offered != 1000 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestPublicExpectedRevenueMatchesPaperExample(t *testing.T) {
	// The running example through the public API: E[U] = 4.075 for prices
	// {3, 3, 2} (the paper reports 4.1 after rounding).
	grid := spatialcrowd.Grid(geo.SquareGrid(8, 4))
	tasks := []spatialcrowd.Task{
		{ID: 1, Origin: spatialcrowd.Point{X: 1, Y: 5}, Distance: 1.3},
		{ID: 2, Origin: spatialcrowd.Point{X: 1.5, Y: 5.5}, Distance: 0.7},
		{ID: 3, Origin: spatialcrowd.Point{X: 5, Y: 5}, Distance: 1.0},
	}
	workers := []spatialcrowd.Worker{
		{ID: 1, Loc: spatialcrowd.Point{X: 3, Y: 5}, Radius: 2.5},
		{ID: 2, Loc: spatialcrowd.Point{X: 7, Y: 5}, Radius: 2.5},
		{ID: 3, Loc: spatialcrowd.Point{X: 5, Y: 3}, Radius: 2.5},
	}
	table, err := stats.NewTable([]float64{1, 2, 3}, []float64{0.9, 0.8, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	model := tableModel{table}
	got, err := spatialcrowd.ExpectedRevenueExact(grid, tasks, workers, []float64{3, 3, 2}, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.075) > 1e-9 {
		t.Fatalf("E[U] = %v, want 4.075", got)
	}
}

type tableModel struct{ d *stats.Table }

func (m tableModel) Dist(int) stats.Dist { return m.d }

func TestPublicMaxMatchingRevenue(t *testing.T) {
	tasks := []spatialcrowd.Task{
		{ID: 1, Origin: spatialcrowd.Point{X: 1, Y: 5}, Distance: 1.3},
		{ID: 2, Origin: spatialcrowd.Point{X: 1.5, Y: 5.5}, Distance: 0.7},
		{ID: 3, Origin: spatialcrowd.Point{X: 5, Y: 5}, Distance: 1.0},
	}
	workers := []spatialcrowd.Worker{
		{ID: 1, Loc: spatialcrowd.Point{X: 3, Y: 5}, Radius: 2.5},
		{ID: 2, Loc: spatialcrowd.Point{X: 7, Y: 5}, Radius: 2.5},
		{ID: 3, Loc: spatialcrowd.Point{X: 5, Y: 3}, Radius: 2.5},
	}
	got := spatialcrowd.MaxMatchingRevenue(tasks, workers, []float64{3, 3, 2})
	if math.Abs(got-5.9) > 1e-9 { // r1 on w1 (3.9) + r3 on w2/w3 (2.0)
		t.Fatalf("max matching revenue = %v, want 5.9", got)
	}
}

func TestPublicBuildPeriodContext(t *testing.T) {
	grid := spatialcrowd.Grid(geo.SquareGrid(8, 4))
	tasks := []spatialcrowd.Task{{ID: 1, Origin: spatialcrowd.Point{X: 1, Y: 5}, Distance: 2}}
	workers := []spatialcrowd.Worker{{ID: 1, Loc: spatialcrowd.Point{X: 3, Y: 5}, Radius: 2.5, Duration: 1}}
	ctx := spatialcrowd.BuildPeriodContext(grid, 0, tasks, workers)
	if len(ctx.Tasks) != 1 || ctx.Graph.NumEdges() != 1 {
		t.Fatalf("context: %d tasks, %d edges", len(ctx.Tasks), ctx.Graph.NumEdges())
	}
	// Drive a strategy manually through the context.
	sdr, err := spatialcrowd.NewSDR(spatialcrowd.DefaultParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	prices := sdr.Prices(ctx)
	if len(prices) != 1 {
		t.Fatalf("prices = %v", prices)
	}
}

func TestPublicPeriodContextBuilder(t *testing.T) {
	grid := spatialcrowd.Grid(geo.SquareGrid(8, 4))
	var b spatialcrowd.PeriodContextBuilder
	for period := 0; period < 5; period++ {
		tasks := []spatialcrowd.Task{
			{ID: period * 10, Origin: spatialcrowd.Point{X: 1, Y: 5}, Distance: 2},
			{ID: period*10 + 1, Origin: spatialcrowd.Point{X: float64(period), Y: 1}, Distance: 3},
		}
		workers := []spatialcrowd.Worker{{ID: 1, Loc: spatialcrowd.Point{X: 3, Y: 5}, Radius: 2.5, Duration: 1}}
		got := b.Build(grid, period, tasks, workers)
		want := spatialcrowd.BuildPeriodContext(grid, period, tasks, workers)
		if len(got.Tasks) != len(want.Tasks) || got.Graph.NumEdges() != want.Graph.NumEdges() ||
			len(got.Cells) != len(want.Cells) {
			t.Fatalf("period %d: builder context diverges: %d tasks/%d edges/%d cells, want %d/%d/%d",
				period, len(got.Tasks), got.Graph.NumEdges(), len(got.Cells),
				len(want.Tasks), want.Graph.NumEdges(), len(want.Cells))
		}
	}
}

func TestPublicExperimentRunner(t *testing.T) {
	r := spatialcrowd.NewRunner()
	r.Scale = 100
	r.ProbeBudget = 30
	s, err := r.VaryDemandMean()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 5 {
		t.Fatalf("points = %d", len(s.Points))
	}
}

// ExampleNewMAPS reproduces the paper's Example 5 through the public API:
// with Table 1's acceptance statistics, MAPS prices the two-task grid at 3
// and the single-task grid at 2.
func ExampleNewMAPS() {
	grid := spatialcrowd.Grid(geo.SquareGrid(8, 4))
	tasks := []spatialcrowd.Task{
		{ID: 1, Origin: spatialcrowd.Point{X: 1, Y: 5}, Distance: 1.3},
		{ID: 2, Origin: spatialcrowd.Point{X: 1.5, Y: 5.5}, Distance: 0.7},
		{ID: 3, Origin: spatialcrowd.Point{X: 5, Y: 5}, Distance: 1.0},
	}
	workers := []spatialcrowd.Worker{
		{ID: 1, Loc: spatialcrowd.Point{X: 3, Y: 5}, Radius: 2.5, Duration: 1},
		{ID: 2, Loc: spatialcrowd.Point{X: 7, Y: 5}, Radius: 2.5, Duration: 1},
		{ID: 3, Loc: spatialcrowd.Point{X: 5, Y: 3}, Radius: 2.5, Duration: 1},
	}

	params := spatialcrowd.Params{PMin: 1, PMax: 3, Alpha: 0.5, Eps: 0.2, Delta: 0.01}
	maps, err := spatialcrowd.NewMAPS(params, 2)
	if err != nil {
		panic(err)
	}
	maps.SetLadder([]float64{1, 2, 3})
	for _, cell := range []int{8, 10} { // the grids of (1,5) and (5,5)
		cs := maps.CellStats(cell)
		cs.Seed(1, 100000, 90000) // S(1) = 0.9 (Table 1)
		cs.Seed(2, 100000, 80000) // S(2) = 0.8
		cs.Seed(3, 100000, 50000) // S(3) = 0.5
	}

	ctx := spatialcrowd.BuildPeriodContext(grid, 0, tasks, workers)
	prices := maps.Prices(ctx)
	fmt.Printf("r1: %.0f  r2: %.0f  r3: %.0f\n", prices[0], prices[1], prices[2])
	// Output: r1: 3  r2: 3  r3: 2
}

// TestPublicBuildPeriodContextGrouping covers BuildPeriodContext directly:
// cell attribution, per-cell distance-descending ordering, and the range
// constraint encoded in the graph.
func TestPublicBuildPeriodContextGrouping(t *testing.T) {
	grid := spatialcrowd.Grid(geo.SquareGrid(100, 10)) // 10x10 cells of 10 units
	tasks := []spatialcrowd.Task{
		{ID: 0, Origin: spatialcrowd.Point{X: 5, Y: 5}, Distance: 2},   // cell 0
		{ID: 1, Origin: spatialcrowd.Point{X: 7, Y: 3}, Distance: 9},   // cell 0
		{ID: 2, Origin: spatialcrowd.Point{X: 3, Y: 8}, Distance: 4},   // cell 0
		{ID: 3, Origin: spatialcrowd.Point{X: 55, Y: 5}, Distance: 1},  // cell 5
		{ID: 4, Origin: spatialcrowd.Point{X: 95, Y: 95}, Distance: 6}, // cell 99
	}
	workers := []spatialcrowd.Worker{
		{ID: 0, Loc: spatialcrowd.Point{X: 6, Y: 6}, Radius: 5},   // reaches cell-0 tasks
		{ID: 1, Loc: spatialcrowd.Point{X: 50, Y: 50}, Radius: 1}, // reaches nobody
	}
	ctx := spatialcrowd.BuildPeriodContext(grid, 3, tasks, workers)

	if ctx.Period != 3 {
		t.Fatalf("period = %d, want 3", ctx.Period)
	}
	if len(ctx.Tasks) != len(tasks) || len(ctx.Workers) != len(workers) {
		t.Fatalf("context sizes: %d tasks, %d workers", len(ctx.Tasks), len(ctx.Workers))
	}
	if len(ctx.Cells) != 3 || ctx.Cells[0].Cell != 0 || ctx.Cells[1].Cell != 5 || ctx.Cells[2].Cell != 99 {
		t.Fatalf("cells = %v, want groups for cells 0, 5, 99, ascending", ctx.Cells)
	}
	// Cell 0's tasks are ordered by distance descending: 9, 4, 2.
	got := ctx.Cells[0].Tasks
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell 0 order = %v, want %v", got, want)
		}
	}
	for _, ti := range got {
		if ctx.Tasks[ti].Cell != 0 {
			t.Fatalf("task %d attributed to cell %d, want 0", ti, ctx.Tasks[ti].Cell)
		}
	}
	// Worker 0 reaches exactly the three cell-0 tasks; worker 1 none.
	if ctx.Graph.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", ctx.Graph.NumEdges())
	}
	for _, ti := range []int{0, 1, 2} {
		if !ctx.Graph.HasEdge(ti, 0) {
			t.Fatalf("missing edge task %d - worker 0", ti)
		}
	}
	if ctx.Graph.HasEdge(3, 0) || ctx.Graph.HasEdge(4, 0) || ctx.Graph.HasEdge(0, 1) {
		t.Fatal("range constraint violated in graph")
	}
}

// TestPublicEngineReplayMatchesRun checks the public streaming facade: a
// deterministic engine replaying an instance reproduces Run's revenue.
func TestPublicEngineReplayMatchesRun(t *testing.T) {
	cfg := spatialcrowd.SyntheticConfig{
		Workers: 200, Requests: 1000, Periods: 50, GridSide: 4, Seed: 1,
	}
	instance, model, err := spatialcrowd.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := spatialcrowd.DefaultParams()
	base, err := spatialcrowd.NewBaseP(params)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Calibrate(spatialcrowd.OracleFromModel(model, 7), instance.Grid.NumCells(), 100); err != nil {
		t.Fatal(err)
	}

	simRes, err := spatialcrowd.Run(instance, base, spatialcrowd.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}

	eng, err := spatialcrowd.NewEngine(spatialcrowd.EngineConfig{
		Grid: instance.Grid, Strategy: base, AutoDecide: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := spatialcrowd.ReplayInstance(eng, instance)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if events != int(st.Events) {
		t.Fatalf("replay submitted %d events, engine counted %d", events, st.Events)
	}
	if rel := math.Abs(st.Revenue-simRes.Revenue) / simRes.Revenue; rel > 0.02 {
		t.Fatalf("engine revenue %.2f vs sim %.2f (rel diff %.4f)", st.Revenue, simRes.Revenue, rel)
	}
	if ds := eng.Poll(); len(ds) == 0 {
		t.Fatal("no decisions emitted")
	}
}

// TestPublicMobilityReplay exercises the worker-lifecycle surface through
// the facade: a generated mobility trace replays through a sharded engine
// (moves, cross-shard migrations) with lifecycle accounting exposed in the
// stats, and an explicit WorkerMoveEvent relocates supply.
func TestPublicMobilityReplay(t *testing.T) {
	cfg := spatialcrowd.SyntheticConfig{
		Workers: 200, Requests: 1000, Periods: 50, GridSide: 4, Seed: 1,
	}
	instance, _, err := spatialcrowd.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	moves := spatialcrowd.GenerateMobilityTrace(instance, spatialcrowd.MobilityConfig{MoveProb: 0.3, Seed: 5})
	if len(moves) == 0 {
		t.Fatal("empty mobility trace")
	}
	params := spatialcrowd.DefaultParams()
	eng, err := spatialcrowd.NewEngine(spatialcrowd.EngineConfig{
		Grid:   instance.Grid,
		Shards: 2,
		NewStrategy: func(int) spatialcrowd.Strategy {
			s, _ := spatialcrowd.NewSDR(params, 2)
			return s
		},
		AutoDecide: true,
		OnDecision: func(spatialcrowd.Decision) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatialcrowd.ReplayInstanceMobility(eng, instance, moves); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	lc := eng.Stats().Lifecycle
	if lc.Onlines == 0 || lc.Moves+lc.Migrations == 0 {
		t.Fatalf("lifecycle counters flat: %+v", lc)
	}

	// Explicit move through the event API: supply follows the worker.
	det, err := spatialcrowd.NewEngine(spatialcrowd.EngineConfig{
		Grid: spatialcrowd.NewSquareGrid(100, 10), Strategy: mustSDR(t, params), AutoDecide: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []spatialcrowd.EngineEvent{
		spatialcrowd.TickEvent(0),
		spatialcrowd.WorkerOnlineEvent(spatialcrowd.Worker{ID: 1, Loc: spatialcrowd.Point{X: 5, Y: 5}, Radius: 3, Duration: 10}),
		spatialcrowd.WorkerMoveEvent(1, spatialcrowd.Point{X: 55, Y: 55}),
		spatialcrowd.TaskArrivalEvent(spatialcrowd.Task{ID: 1, Origin: spatialcrowd.Point{X: 55, Y: 55}, Distance: 2, Valuation: 100}),
		spatialcrowd.TickEvent(1),
	} {
		if err := det.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	if st := det.Stats(); st.Served != 1 {
		t.Fatalf("moved worker did not serve the task at its new position: %+v", st)
	}
}

func mustSDR(t *testing.T, p spatialcrowd.Params) spatialcrowd.Strategy {
	t.Helper()
	s, err := spatialcrowd.NewSDR(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
