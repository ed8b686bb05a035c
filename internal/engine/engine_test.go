package engine

import (
	"math"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/workload"
)

// fixedPrice is a minimal deterministic strategy for unit tests.
type fixedPrice struct {
	price    float64
	observes int
	outcomes []bool
}

func (f *fixedPrice) Name() string { return "fixed" }
func (f *fixedPrice) Prices(ctx *core.PeriodContext) []float64 {
	out := make([]float64, len(ctx.Tasks))
	for i := range out {
		out[i] = f.price
	}
	return out
}
func (f *fixedPrice) Observe(ctx *core.PeriodContext, prices []float64, accepted []bool) {
	f.observes++
	f.outcomes = append(f.outcomes, accepted...)
}

func testInstance(t testing.TB) (*market.Instance, market.ValuationModel) {
	t.Helper()
	in, model, err := workload.Synthetic(workload.SyntheticConfig{
		Workers: 400, Requests: 1600, Periods: 60, GridSide: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in, model
}

func calibratedBase(t testing.TB, in *market.Instance, model market.ValuationModel) *core.BaseP {
	t.Helper()
	basep, err := core.NewBaseP(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	oracle := market.NewModelOracle(model, 3)
	if err := basep.Calibrate(oracle, in.Grid.NumCells(), 100); err != nil {
		t.Fatal(err)
	}
	return basep
}

// replayDeterministic runs the instance through a deterministic AutoDecide
// engine and returns its final stats.
func replayDeterministic(t *testing.T, in *market.Instance, strat core.Strategy) Stats {
	t.Helper()
	e, err := New(Config{Grid: in.Grid, Strategy: strat, AutoDecide: true,
		OnDecision: func(Decision) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(e, in); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return e.Stats()
}

// TestDeterministicEquivalenceSim is the end-to-end equivalence criterion:
// the engine in deterministic AutoDecide mode must reproduce sim.Run's
// revenue on the same workload. The engine builds its bipartite graphs from
// worker-index candidates while the simulator uses the grid index, so adjacency
// orders differ; both assignments are exact maximum-weight values each
// period, but ties in which worker serves a task can consume different
// workers and drift the pool slightly across periods — hence a tolerance
// rather than exact equality.
func TestDeterministicEquivalenceSim(t *testing.T) {
	in, model := testInstance(t)
	basep := calibratedBase(t, in, model)
	pb := basep.BasePrice()

	cases := []struct {
		name string
		make func() core.Strategy
		tol  float64
	}{
		{"BaseP", func() core.Strategy { return basep }, 0.02},
		{"SDR", func() core.Strategy { s, _ := core.NewSDR(core.DefaultParams(), pb); return s }, 0.02},
		{"SDE", func() core.Strategy { s, _ := core.NewSDE(core.DefaultParams(), pb); return s }, 0.02},
		{"MAPS", func() core.Strategy {
			m, _ := core.NewMAPS(core.DefaultParams(), pb)
			basep.WarmStart(m.CellStats)
			return m
		}, 0.06},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			simRes, err := sim.Run(in, tc.make(), sim.Config{Params: core.DefaultParams()})
			if err != nil {
				t.Fatal(err)
			}
			st := replayDeterministic(t, in, tc.make())

			if simRes.Revenue <= 0 {
				t.Fatalf("sim revenue = %v, want > 0", simRes.Revenue)
			}
			rel := math.Abs(st.Revenue-simRes.Revenue) / simRes.Revenue
			t.Logf("sim revenue %.2f, engine revenue %.2f (rel diff %.4f); sim served %d, engine served %d",
				simRes.Revenue, st.Revenue, rel, simRes.Served, st.Served)
			if rel > tc.tol {
				t.Fatalf("engine revenue %.2f deviates from sim %.2f by %.2f%% (tolerance %.2f%%)",
					st.Revenue, simRes.Revenue, 100*rel, 100*tc.tol)
			}
			if st.TasksPriced != int64(simRes.Offered) {
				t.Fatalf("engine priced %d tasks, sim offered %d", st.TasksPriced, simRes.Offered)
			}
			if st.Accepted != int64(simRes.Accepted) {
				t.Fatalf("engine accepted %d, sim accepted %d", st.Accepted, simRes.Accepted)
			}
		})
	}
}

// TestShardedRepeatable checks that the concurrent engine is deterministic
// for a fixed input order (per-shard FIFO makes each shard's event sequence
// independent of goroutine scheduling) and that its statistics cohere.
func TestShardedRepeatable(t *testing.T) {
	in, model := testInstance(t)
	basep := calibratedBase(t, in, model)
	pb := basep.BasePrice()

	run := func(shards int) Stats {
		e, err := New(Config{
			Grid:   in.Grid,
			Shards: shards,
			NewStrategy: func(int) core.Strategy {
				s, _ := core.NewSDR(core.DefaultParams(), pb)
				return s
			},
			AutoDecide: true,
			OnDecision: func(Decision) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(e, in); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}

	a, b := run(4), run(4)
	if a.Revenue <= 0 {
		t.Fatalf("sharded revenue = %v, want > 0", a.Revenue)
	}
	if a.Revenue != b.Revenue || a.Served != b.Served || a.Accepted != b.Accepted {
		t.Fatalf("sharded runs diverged: %+v vs %+v", a, b)
	}
	if len(a.ShardRevenue) != 4 {
		t.Fatalf("ShardRevenue has %d entries, want 4", len(a.ShardRevenue))
	}
	sum := 0.0
	for _, r := range a.ShardRevenue {
		sum += r
	}
	if math.Abs(sum-a.Revenue) > 1e-6 {
		t.Fatalf("shard revenues sum to %v, total %v", sum, a.Revenue)
	}
	if a.Served > a.Accepted || a.Accepted > a.TasksPriced {
		t.Fatalf("inconsistent funnel: %+v", a)
	}
	if a.P99Latency < a.P50Latency {
		t.Fatalf("p99 %v < p50 %v", a.P99Latency, a.P50Latency)
	}
}

// quotedEngine builds a deterministic quoted-mode engine over a small grid.
func quotedEngine(t *testing.T, strat core.Strategy) *Engine {
	t.Helper()
	e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustSubmit(t *testing.T, e *Engine, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if err := e.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuotedFlow(t *testing.T) {
	strat := &fixedPrice{price: 2}
	e := quotedEngine(t, strat)
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		WorkerOnline(market.Worker{ID: 2, Loc: geo.Point{X: 12, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 100, Origin: geo.Point{X: 11, Y: 11}, Distance: 3}),
		TaskArrival(market.Task{ID: 101, Origin: geo.Point{X: 9, Y: 9}, Distance: 2}),
		TaskArrival(market.Task{ID: 102, Origin: geo.Point{X: 90, Y: 90}, Distance: 5}), // out of range
		Tick(1),
	)
	quotes := e.Poll()
	if len(quotes) != 3 {
		t.Fatalf("got %d quotes, want 3", len(quotes))
	}
	for _, q := range quotes {
		if !q.Quoted || q.Price != 2 || q.WorkerID != -1 {
			t.Fatalf("bad quote %+v", q)
		}
	}

	mustSubmit(t, e,
		AcceptDecision(100, true),
		AcceptDecision(101, false),
		AcceptDecision(102, true), // accepted but no worker in range
	)
	ds := e.Poll()
	if len(ds) != 3 {
		t.Fatalf("got %d decisions, want 3", len(ds))
	}
	byID := map[int]Decision{}
	for _, d := range ds {
		byID[d.TaskID] = d
	}
	if d := byID[100]; !d.Accepted || !d.Served || d.Revenue != 6 {
		t.Fatalf("task 100: %+v", d)
	}
	if d := byID[101]; d.Accepted || d.Served {
		t.Fatalf("task 101: %+v", d)
	}
	if d := byID[102]; !d.Accepted || d.Served {
		t.Fatalf("task 102: %+v", d)
	}

	mustSubmit(t, e, Tick(2)) // finalize
	st := e.Stats()
	if st.Quoted != 3 || st.Accepted != 2 || st.Served != 1 || st.Revenue != 6 {
		t.Fatalf("stats after finalize: %+v", st)
	}
	if strat.observes != 1 {
		t.Fatalf("strategy observed %d batches, want 1", strat.observes)
	}
	want := []bool{true, false, true}
	for i, acc := range strat.outcomes {
		if acc != want[i] {
			t.Fatalf("observed outcomes %v, want %v", strat.outcomes, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerOfflineRepair exercises the incremental-removal path: a worker
// with a provisional assignment goes offline mid-batch and the task is
// reassigned via a fresh augmenting path; when no path remains the task is
// reported unserved and the finalized stats reflect it.
func TestWorkerOfflineRepair(t *testing.T) {
	e := quotedEngine(t, &fixedPrice{price: 2})
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		WorkerOnline(market.Worker{ID: 2, Loc: geo.Point{X: 12, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 100, Origin: geo.Point{X: 11, Y: 11}, Distance: 3}),
		Tick(1),
		AcceptDecision(100, true),
	)
	ds := e.Poll()
	var assigned Decision
	for _, d := range ds {
		if d.TaskID == 100 && d.Served {
			assigned = d
		}
	}
	if !assigned.Served {
		t.Fatalf("task not assigned: %+v", ds)
	}

	mustSubmit(t, e, WorkerOffline(assigned.WorkerID))
	ds = e.Poll()
	if len(ds) != 1 {
		t.Fatalf("got %d repair decisions, want 1: %+v", len(ds), ds)
	}
	other := 1 + 2 - assigned.WorkerID
	if !ds[0].Served || ds[0].WorkerID != other {
		t.Fatalf("expected reassignment to worker %d, got %+v", other, ds[0])
	}

	mustSubmit(t, e, WorkerOffline(other))
	ds = e.Poll()
	if len(ds) != 1 || ds[0].Served || !ds[0].Accepted {
		t.Fatalf("expected unserved repair decision, got %+v", ds)
	}

	mustSubmit(t, e, Tick(2))
	st := e.Stats()
	if st.Accepted != 1 || st.Served != 0 || st.Revenue != 0 {
		t.Fatalf("finalized stats %+v, want accepted=1 served=0 revenue=0", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowBatching checks that Window > 1 groups several periods' tasks
// into one pricing batch.
func TestWindowBatching(t *testing.T) {
	strat := &fixedPrice{price: 2}
	e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: strat, Window: 2, AutoDecide: true})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 1, Origin: geo.Point{X: 11, Y: 11}, Distance: 1, Valuation: 5}),
		Tick(1),
		TaskArrival(market.Task{ID: 2, Origin: geo.Point{X: 9, Y: 9}, Distance: 2, Valuation: 5}),
	)
	if got := e.Stats().Batches; got != 0 {
		t.Fatalf("batch closed before the window boundary (batches=%d)", got)
	}
	mustSubmit(t, e, Tick(2))
	st := e.Stats()
	if st.Batches != 1 || st.TasksPriced != 2 {
		t.Fatalf("stats %+v, want one batch of two tasks", st)
	}
	// One worker, both tasks accepted: only the heavier task is served.
	if st.Served != 1 || st.Revenue != 4 {
		t.Fatalf("stats %+v, want served=1 revenue=4", st)
	}
	ds := e.Poll()
	for _, d := range ds {
		if d.Period != 1 {
			t.Fatalf("decision period %d, want 1 (window close period): %+v", d.Period, d)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLateAndInvalidEvents(t *testing.T) {
	e := quotedEngine(t, &fixedPrice{price: 2})
	if err := e.Submit(Event{}); err == nil {
		t.Fatal("zero event accepted")
	}
	mustSubmit(t, e, AcceptDecision(999, true)) // no pending batch
	if st := e.Stats(); st.Late != 1 {
		t.Fatalf("late = %d, want 1", st.Late)
	}
	mustSubmit(t, e, WorkerOffline(999)) // unknown worker: same accounting as router
	if st := e.Stats(); st.Late != 2 {
		t.Fatalf("late = %d, want 2", st.Late)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(Tick(0)); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Grid: geo.SquareGrid(100, 10)}); err == nil {
		t.Fatal("missing strategy accepted")
	}
	if _, err := New(Config{Strategy: &fixedPrice{price: 2}}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}, Shards: 2}); err == nil {
		t.Fatal("multi-shard without factory accepted")
	}
}

// TestIdleFastForward checks that a sparse tick sequence (large period
// jumps with no tasks) stays cheap and still evicts lapsed workers.
func TestIdleFastForward(t *testing.T) {
	strat := &fixedPrice{price: 2}
	e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: strat, AutoDecide: true})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 5}),
		Tick(1_000_000),
		TaskArrival(market.Task{ID: 1, Origin: geo.Point{X: 11, Y: 11}, Distance: 1, Valuation: 5}),
		Tick(1_000_001),
	)
	st := e.Stats()
	// The worker lapsed long before the task arrived.
	if st.Accepted != 1 || st.Served != 0 {
		t.Fatalf("stats %+v, want accepted=1 served=0 (worker expired)", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQuotedReassignmentSupersedes pins the decision-stream contract: when a
// later acceptance's augmenting path flips an earlier task to a different
// worker, a superseding decision is emitted, so the last decision per task
// always names the committed worker. Geometry: task 1 reaches workers 1 and
// 2, task 2 reaches only worker 1 — whatever worker task 1 grabs first, the
// final matching must be task1-worker2, task2-worker1.
func TestQuotedReassignmentSupersedes(t *testing.T) {
	e := quotedEngine(t, &fixedPrice{price: 2})
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 5, Duration: 100}),
		WorkerOnline(market.Worker{ID: 2, Loc: geo.Point{X: 20, Y: 10}, Radius: 5, Duration: 100}),
		TaskArrival(market.Task{ID: 1, Origin: geo.Point{X: 15, Y: 10}, Distance: 3}), // both workers
		TaskArrival(market.Task{ID: 2, Origin: geo.Point{X: 7, Y: 10}, Distance: 2}),  // worker 1 only
		Tick(1),
		AcceptDecision(1, true),
		AcceptDecision(2, true),
	)
	last := map[int]Decision{}
	for _, d := range e.Poll() {
		if !d.Quoted {
			last[d.TaskID] = d
		}
	}
	if d := last[1]; !d.Served || d.WorkerID != 2 {
		t.Fatalf("task 1 final decision %+v, want served by worker 2", d)
	}
	if d := last[2]; !d.Served || d.WorkerID != 1 {
		t.Fatalf("task 2 final decision %+v, want served by worker 1", d)
	}
	mustSubmit(t, e, Tick(2))
	if st := e.Stats(); st.Served != 2 || st.Revenue != 10 {
		t.Fatalf("finalized stats %+v, want served=2 revenue=10", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQuoteLapsesWithTerminalDecision checks that an unanswered quote gets
// a terminal unaccepted Decision when its batch finalizes, so stream
// consumers can settle open-quote state.
func TestQuoteLapsesWithTerminalDecision(t *testing.T) {
	e := quotedEngine(t, &fixedPrice{price: 2})
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 42, Origin: geo.Point{X: 11, Y: 11}, Distance: 3}),
		Tick(1),
	)
	quotes := e.Poll()
	if len(quotes) != 1 || !quotes[0].Quoted {
		t.Fatalf("quotes = %+v", quotes)
	}
	mustSubmit(t, e, Tick(2)) // no reply: the quote lapses
	ds := e.Poll()
	if len(ds) != 1 || ds[0].TaskID != 42 || ds[0].Quoted || ds[0].Accepted || ds[0].Served {
		t.Fatalf("lapse decisions = %+v, want one terminal rejection for task 42", ds)
	}
	if st := e.Stats(); st.Accepted != 0 || st.Served != 0 {
		t.Fatalf("stats %+v, want nothing accepted/served", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
