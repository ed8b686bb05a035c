// Package spatialcrowd is a Go implementation of "Dynamic Pricing in Spatial
// Crowdsourcing: A Matching-Based Approach" (Tong et al., SIGMOD 2018).
//
// A spatial-crowdsourcing platform (ride hailing, food delivery, gig
// micro-tasks) must set one unit price per grid cell per time period so that
// its expected total revenue — over requesters' random accept/reject
// decisions and the maximum-weight matching of accepting tasks to
// range-constrained workers — is maximized. The package provides:
//
//   - BaseP: the base pricing strategy (Algorithm 1), which estimates
//     per-grid Myerson reserve prices from accept/reject probes and prices
//     everything at their average;
//   - MAPS: the matching-based dynamic pricing strategy (Algorithms 2–3),
//     which greedily distributes dependent supply across grids with
//     augmenting-path validation and prices each grid with a UCB index;
//   - the paper's comparison baselines SDR, SDE, and CappedUCB;
//   - a market simulator, synthetic and Beijing-like workload generators,
//     and the experiment drivers that regenerate every figure of the
//     paper's evaluation;
//   - a streaming dispatch engine (NewEngine, cmd/serve) that serves the same
//     strategies online over an event stream with sharded market state and
//     incremental matching.
//
// # Quick start
//
//	cfg := spatialcrowd.SyntheticConfig{Workers: 500, Requests: 2000, Seed: 1}
//	instance, model, _ := spatialcrowd.Synthetic(cfg)
//
//	params := spatialcrowd.DefaultParams()
//	base, _ := spatialcrowd.NewBaseP(params)
//	_ = base.Calibrate(spatialcrowd.OracleFromModel(model, 7), instance.Grid.NumCells(), 200)
//
//	maps, _ := spatialcrowd.NewMAPS(params, base.BasePrice())
//	result, _ := spatialcrowd.Run(instance, maps, spatialcrowd.DefaultSimConfig())
//	fmt.Println(result.Revenue)
//
// The facade re-exports only what the examples, the package's tests and
// their documentation call; everything else is reached through the internal
// packages by the module's own commands. See the examples/ directory for
// complete programs and EXPERIMENTS.md for the paper-versus-measured record
// of every reproduced figure.
package spatialcrowd

import (
	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/exp"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/pworld"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
	"spatialcrowd/internal/workload"
)

// Geometry and market model.
type (
	// Point is a planar location.
	Point = geo.Point
	// Grid is the uniform partition of the region into local markets.
	Grid = geo.Grid
	// Task is a spatial task with origin, destination, travel distance, and
	// the requester's private valuation.
	Task = market.Task
	// Worker is a crowd worker with a location and range constraint.
	Worker = market.Worker
)

// Pricing strategies.
type (
	// Params bundles the pricing knobs (price bounds, ladder step, accuracy).
	Params = core.Params
	// Strategy is the interface every pricing algorithm implements.
	Strategy = core.Strategy
	// StrategyState is a strategy's complete serializable learned state
	// (MAPS and CappedUCB snapshot it exactly for engine checkpoints).
	StrategyState = core.StrategyState
)

// Workloads.
type (
	// SyntheticConfig parameterizes the Table 3 synthetic workload.
	SyntheticConfig = workload.SyntheticConfig
	// BeijingConfig parameterizes the Beijing-like real-data stand-in.
	BeijingConfig = workload.BeijingConfig
	// MobilityConfig parameterizes the synthetic mobility-trace generator.
	MobilityConfig = workload.MobilityConfig
)

// BeijingRush is the Beijing-like dataset #1 (5pm-7pm, heavy demand).
const BeijingRush = workload.BeijingRush

// Streaming dispatch engine (the online counterpart of Run; see cmd/serve).
// The Engine also exposes Checkpoint(io.Writer) / Restore(io.Reader) /
// RestoredPeriod() for crash-safe state snapshots: checkpoint a
// deterministic engine, restore into a fresh one, resume the stream from
// RestoredPeriod()+1, and the run's revenue is reproduced exactly (see
// EXPERIMENTS.md for the recipe).
type (
	// EngineConfig parameterizes NewEngine (shards, window, strategy).
	EngineConfig = engine.Config
	// EngineEvent is one element of the engine's input stream.
	EngineEvent = engine.Event
	// Decision is one element of the engine's output stream: a quote,
	// requester outcome, or (re)assignment for a single task.
	Decision = engine.Decision
)

// NewEngine starts a streaming dispatch engine: a router in front of shards
// that each own a subset of grid cells. With EngineConfig.Shards = 0 the
// router and its one shard run in the caller's goroutine, deterministically
// and exactly like a one-shard engine; otherwise each runs on its own
// goroutine.
func NewEngine(cfg EngineConfig) (*engine.Engine, error) { return engine.New(cfg) }

// ReplayInstance feeds a complete instance into the engine as the canonical
// event stream (per period: a Tick, worker arrivals, task arrivals) and
// returns the number of events submitted. On a deterministic AutoDecide
// engine this is the streaming equivalent of Run.
func ReplayInstance(e *engine.Engine, in *market.Instance) (int, error) { return engine.Replay(e, in) }

// ReplayInstanceMobility is ReplayInstance with a mobility trace
// interleaved: each move of period t becomes a worker-move event right
// after the tick that closes period t's batch, matching the simulator's
// reposition-after-assignment ordering. A deterministic AutoDecide engine
// with EngineConfig.CellIndexGraphs set, replaying the moves Run recorded
// through the simulator config's OnMove hook, reproduces Run's revenue
// exactly.
func ReplayInstanceMobility(e *engine.Engine, in *market.Instance, moves []market.Move) (int, error) {
	return engine.ReplayMobility(e, in, moves)
}

// GenerateMobilityTrace fabricates a random per-period worker mobility
// trace for an instance (workers drift toward neighboring cells), for
// stress-testing the engine's move/migration path. For the
// demand-following trace of a specific simulation, record the simulator
// config's OnMove hook instead.
func GenerateMobilityTrace(in *market.Instance, cfg MobilityConfig) []market.Move {
	return workload.MobilityTrace(in, cfg)
}

// TaskArrivalEvent announces a new task to the engine.
func TaskArrivalEvent(t Task) EngineEvent { return engine.TaskArrival(t) }

// WorkerOnlineEvent adds a worker to the engine's pool.
func WorkerOnlineEvent(w Worker) EngineEvent { return engine.WorkerOnline(w) }

// WorkerMoveEvent relocates an online worker. Within a shard the pool entry
// moves in place; across shards the engine migrates the worker with a
// retire/admit handshake so no ghost supply survives.
func WorkerMoveEvent(id int, to Point) EngineEvent { return engine.WorkerMove(id, to) }

// TickEvent advances the engine clock; crossing a window boundary closes
// and prices the open batch of every shard.
func TickEvent(period int) EngineEvent { return engine.Tick(period) }

// NewSquareGrid builds an n x n grid over the square region [0, side]^2 —
// the geometry every workload generator uses. Library users assembling
// custom markets (e.g. feeding the streaming engine) start here.
func NewSquareGrid(side float64, n int) Grid { return geo.SquareGrid(side, n) }

// DefaultParams returns the paper's experimental pricing parameters:
// prices in [1, 5], ladder step 0.5, accuracy (0.2, 0.01).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultSimConfig returns the default simulator configuration.
func DefaultSimConfig() sim.Config { return sim.DefaultConfig() }

// NewBaseP builds the base pricing strategy (calibrate it before use).
func NewBaseP(p Params) (*core.BaseP, error) { return core.NewBaseP(p) }

// NewMAPS builds the MAPS strategy around a base price.
func NewMAPS(p Params, basePrice float64) (*core.MAPS, error) { return core.NewMAPS(p, basePrice) }

// NewSDR builds the supply-demand-ratio baseline.
func NewSDR(p Params, basePrice float64) (*core.SDR, error) { return core.NewSDR(p, basePrice) }

// NewSDE builds the exponential supply-demand-difference baseline.
func NewSDE(p Params, basePrice float64) (*core.SDE, error) { return core.NewSDE(p, basePrice) }

// Run simulates an instance under a strategy and reports revenue and
// resource metrics.
func Run(in *market.Instance, strat Strategy, cfg sim.Config) (sim.Result, error) {
	return sim.Run(in, strat, cfg)
}

// Synthetic generates a Table 3 synthetic market instance plus the hidden
// valuation model (for calibration oracles).
func Synthetic(cfg SyntheticConfig) (*market.Instance, market.ValuationModel, error) {
	return workload.Synthetic(cfg)
}

// BeijingLike generates the Beijing-like stand-in for the paper's real
// datasets (Table 4).
func BeijingLike(cfg BeijingConfig) (*market.Instance, market.ValuationModel, error) {
	return workload.BeijingLike(cfg)
}

// NewRunner returns the experiment runner with paper-scale defaults.
func NewRunner() *exp.Runner { return exp.NewRunner() }

// BuildPeriodContext assembles the strategy-facing view of one period:
// task projections, the range-constraint bipartite graph, and per-cell
// groupings. Library users driving strategies outside the simulator (e.g.
// pricing live data one batch at a time) use this as the entry point. Any
// spatial backend works; a Grid passes directly.
func BuildPeriodContext(space spatial.Space, period int, tasks []Task, workers []Worker) *core.PeriodContext {
	graph := market.BuildBipartiteCellIndexScratch(space, tasks, workers, nil)
	return core.BuildContext(space, period, tasks, workers, graph)
}

// PeriodContextBuilder is BuildPeriodContext with reusable scratch arenas:
// the bipartite graph, the task views, and the per-cell groupings are
// rebuilt in place batch over batch, so callers pricing a live stream one
// batch at a time allocate nothing in steady state (the discipline the
// streaming engine's shards use internally). One builder serves one
// goroutine; each Build invalidates the previously returned context.
type PeriodContextBuilder struct {
	cellIx market.CellIndexScratch
	ctx    core.ContextScratch
}

// Build assembles the period context over the builder's arenas. The result
// is identical to BuildPeriodContext's (byte-identical graph adjacency,
// same grouping content).
func (b *PeriodContextBuilder) Build(space spatial.Space, period int, tasks []Task, workers []Worker) *core.PeriodContext {
	graph := market.BuildBipartiteCellIndexScratch(space, tasks, workers, &b.cellIx)
	return core.BuildContextScratch(space, period, tasks, workers, graph, &b.ctx)
}

// OracleFromModel adapts a valuation model into a calibration oracle with
// its own deterministic random stream; it stands in for "requesters who
// recently issued tasks" when simulating.
func OracleFromModel(model market.ValuationModel, seed int64) core.ProbeOracle {
	return market.NewModelOracle(model, seed)
}

// ExpectedRevenueExact computes the exact expected total revenue of pricing
// `tasks` at `prices` against known acceptance probabilities, by full
// possible-world enumeration (Definitions 5–6). It is exponential in the
// task count (limit 20) and intended for analysis and testing.
func ExpectedRevenueExact(space spatial.Space, tasks []Task, workers []Worker, prices []float64, model market.ValuationModel) (float64, error) {
	graph := market.BuildBipartite(tasks, workers)
	probs := make([]float64, len(tasks))
	weights := make([]float64, len(tasks))
	for i := range tasks {
		cell := space.CellOf(tasks[i].Origin)
		probs[i] = stats.Accept(model.Dist(cell), prices[i])
		weights[i] = tasks[i].Distance * prices[i]
	}
	return pworld.ExpectedRevenueExact(&pworld.World{Graph: graph, AcceptProb: probs, Weight: weights})
}

// MaxMatchingRevenue returns the best-case single-period revenue if every
// requester accepted: the maximum-weight matching of the full bipartite
// graph with weights d_r * p_r. Useful as an upper bound in reports.
func MaxMatchingRevenue(tasks []Task, workers []Worker, prices []float64) float64 {
	graph := market.BuildBipartite(tasks, workers)
	weights := make([]float64, len(tasks))
	for i := range tasks {
		weights[i] = tasks[i].Distance * prices[i]
	}
	_, total := match.MaxWeightByLeft(graph, weights)
	return total
}
