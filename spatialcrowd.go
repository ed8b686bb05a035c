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
//   - a streaming dispatch engine (Engine, cmd/serve) that serves the same
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
// See the examples/ directory for complete programs and EXPERIMENTS.md for
// the paper-versus-measured record of every reproduced figure.
package spatialcrowd

import (
	"math/rand"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/exp"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/pworld"
	"spatialcrowd/internal/roadnet"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/server/loadgen"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/window"
	"spatialcrowd/internal/workload"
)

// Geometry and market model.
type (
	// Point is a planar location.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Grid is the uniform partition of the region into local markets.
	Grid = geo.Grid
	// Task is a spatial task with origin, destination, travel distance, and
	// the requester's private valuation.
	Task = market.Task
	// Worker is a crowd worker with a location and range constraint.
	Worker = market.Worker
	// Move is one worker relocation (Period, WorkerID, To) — the shared
	// mobility-trace format of the simulator (SimConfig.OnMove), the
	// mobility generator (MobilityTrace), and the engine's replay.
	Move = market.Move
	// Instance is a complete market: spatial partition, periods, tasks, and
	// workers.
	Instance = market.Instance
	// ValuationModel is the hidden per-grid demand distribution.
	ValuationModel = market.ValuationModel
)

// Spatial backends (the pluggable geometry layer; see internal/spatial).
type (
	// Space is the spatial-backend interface every pricing layer depends
	// on: a partition of the plane into cells plus a travel metric. Grid
	// satisfies it directly.
	Space = spatial.Space
	// GridSpace is the uniform-grid backend of the paper's Definition 1.
	GridSpace = spatial.GridSpace
	// RoadSpace is the road-network backend: node-snapped positions,
	// shortest-path distances with an LRU cache, cells from node clusters.
	RoadSpace = spatial.RoadSpace
	// Partitioner maps cells to engine shards.
	Partitioner = spatial.Partitioner
	// RoadNetwork is a directed weighted street graph embedded in the plane.
	RoadNetwork = roadnet.Network
)

// NewGridSpace wraps a grid as a named spatial backend.
func NewGridSpace(g Grid) GridSpace { return spatial.NewGridSpace(g) }

// NewRoadSpace clusters a road network's nodes into the given number of
// cells and returns the road backend.
func NewRoadSpace(net *RoadNetwork, cells int) (*RoadSpace, error) {
	return spatial.NewRoadSpace(net, cells)
}

// ModPartition returns the engine's historical cell-mod-shards partitioner.
func ModPartition(shards int) Partitioner { return spatial.ModPartition(shards) }

// BalancedPartition splits a space's cells into contiguous near-equal runs —
// the partitioner of choice for backends with irregular cell counts.
func BalancedPartition(space Space, shards int) Partitioner {
	return spatial.BalancedPartition(space, shards)
}

// Pricing strategies.
type (
	// Params bundles the pricing knobs (price bounds, ladder step, accuracy).
	Params = core.Params
	// Strategy is the interface every pricing algorithm implements.
	Strategy = core.Strategy
	// PeriodContext is one period's market state as strategies see it.
	PeriodContext = core.PeriodContext
	// BaseP is the base pricing strategy of Section 3.
	BaseP = core.BaseP
	// MAPS is the matching-based dynamic pricing strategy of Section 4.
	MAPS = core.MAPS
	// SDR is the supply-demand-ratio heuristic baseline.
	SDR = core.SDR
	// SDE is the exponential supply-demand-difference heuristic baseline.
	SDE = core.SDE
	// CappedUCB is the per-grid independent limited-supply pricing baseline.
	CappedUCB = core.CappedUCB
	// ProbeOracle answers base pricing's calibration probes.
	ProbeOracle = core.ProbeOracle
)

// Simulation and experiments.
type (
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// SimResult is one run's revenue, counts, and resource metrics.
	SimResult = sim.Result
	// PeriodStats is one period of the simulation trace (SimConfig.Trace).
	PeriodStats = sim.PeriodStats
	// SyntheticConfig parameterizes the Table 3 synthetic workload.
	SyntheticConfig = workload.SyntheticConfig
	// BeijingConfig parameterizes the Beijing-like real-data stand-in.
	BeijingConfig = workload.BeijingConfig
	// BeijingVariant selects the rush-hour or late-night time window.
	BeijingVariant = workload.BeijingVariant
	// RoadConfig parameterizes the road-network Beijing-like workload.
	RoadConfig = workload.RoadConfig
	// MobilityConfig parameterizes the synthetic mobility-trace generator.
	MobilityConfig = workload.MobilityConfig
	// Runner executes the paper's experiments.
	Runner = exp.Runner
	// Series is one figure column: a parameter sweep across strategies.
	Series = exp.Series
)

// Unified window-execution core: the single canonical
// price -> accept -> assign pipeline shared by the offline simulator (Run)
// and the streaming engine's shards. Library users pricing live batches
// outside either driver can execute windows directly through it.
type (
	// WindowExecutor owns one window pipeline and its reusable arenas
	// (graph builder, pricing context, matchers). One executor serves one
	// goroutine.
	WindowExecutor = window.Executor
	// WindowGraphMode selects the batch graph builder (cell index or
	// worker-index candidates).
	WindowGraphMode = window.GraphMode
	// WindowPriced is a priced, not-yet-resolved window.
	WindowPriced = window.Priced
	// WindowOutcome is the settled result of one window.
	WindowOutcome = window.Outcome
	// PriceCountError is the typed contract violation for strategies that
	// return the wrong number of prices.
	PriceCountError = window.PriceCountError
)

// Graph-builder modes for NewWindowExecutor.
const (
	// WindowGraphCellIndex enumerates worker candidates through the spatial
	// cell index — the offline simulator's construction, byte-identical
	// adjacency for deterministic replay.
	WindowGraphCellIndex = window.GraphCellIndex
	// WindowGraphKD enumerates candidates through a bucket grid over the
	// worker pool (the name predates it) — same edge set, faster on large
	// pools. Over more than 128 workers each task's candidates are
	// enumerated as the window's searches read them, so the graph's
	// NumEdges counts the entries read so far, not every edge; Adj still
	// returns complete lists.
	WindowGraphKD = window.GraphKD
)

// NewWindowExecutor returns a window executor over the given spatial
// backend and graph mode.
func NewWindowExecutor(space Space, mode WindowGraphMode) *WindowExecutor {
	return window.NewExecutor(space, mode)
}

// Strategy-state snapshots (exact, for engine checkpoint/restore).
type (
	// StateSnapshotter is the optional Strategy extension for strategies
	// whose learned state can be captured and restored exactly (MAPS and
	// CappedUCB).
	StateSnapshotter = core.StateSnapshotter
	// StrategyState is a strategy's complete serializable learned state.
	StrategyState = core.StrategyState
	// CellSnapshot is one cell's serialized learning state.
	CellSnapshot = core.CellSnapshot
)

// Streaming dispatch engine (the online counterpart of Run; see cmd/serve).
// The Engine also exposes Checkpoint(io.Writer) / Restore(io.Reader) /
// RestoredPeriod() for crash-safe state snapshots: checkpoint a
// deterministic engine, restore into a fresh one, resume the stream from
// RestoredPeriod()+1, and the run's revenue is reproduced exactly (see
// EXPERIMENTS.md for the recipe).
type (
	// Engine is the real-time streaming dispatch engine: it ingests task /
	// worker / decision events, prices batches every window with any
	// Strategy, and assigns accepting tasks with incremental augmenting
	// paths over worker-index candidates.
	Engine = engine.Engine
	// EngineConfig parameterizes NewEngine (shards, window, strategy).
	EngineConfig = engine.Config
	// EngineStats is a snapshot of engine throughput, latency quantiles,
	// per-shard revenue, and worker-lifecycle counters.
	EngineStats = engine.Stats
	// EngineLifecycleStats counts worker-lifecycle transitions: onlines,
	// duplicate onlines, moves, cross-shard migrations, pinned moves, and
	// retirements by reason.
	EngineLifecycleStats = engine.LifecycleStats
	// WorkerState is one stage of the engine's per-worker state machine
	// (offline, online, quoted-held, assigned, retired).
	WorkerState = engine.WorkerState
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
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// WAL is the segmented, CRC32C-framed write-ahead event log. Attach one via
// EngineConfig.WAL and every submitted event is appended (group-commit
// fsynced per WALSyncEvery) before it is applied; after a crash, reopen the
// directory, attach the log to a fresh engine, and call Engine.RecoverWAL
// (optionally with a checkpoint reader) to rebuild the acknowledged state
// exactly — then resume the stream with ReplayOpts.SkipEvents set to the
// recovered Stats().Events. The dispatch server does all of this per tenant
// automatically via TenantConfig.WALDir.
type WAL = wal.Log

// OpenFileWAL opens (creating if needed) a durable on-disk WAL in dir.
// syncEvery > 1 fsyncs once a submitted batch leaves that many events
// unsynced (call Sync for a durability barrier sooner); <= 1 fsyncs every
// submitted batch before it returns.
func OpenFileWAL(dir string, syncEvery int) (*WAL, error) {
	st, err := wal.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	opt := wal.Options{}
	if syncEvery > 1 {
		opt.Sync = wal.SyncBatch
		opt.BatchAppends = syncEvery
	}
	return wal.Open(st, opt)
}

// ReplayInstance feeds a complete instance into the engine as the canonical
// event stream (per period: a Tick, worker arrivals, task arrivals) and
// returns the number of events submitted. On a deterministic AutoDecide
// engine this is the streaming equivalent of Run.
func ReplayInstance(e *Engine, in *Instance) (int, error) { return engine.Replay(e, in) }

// ReplayInstanceMobility is ReplayInstance with a mobility trace
// interleaved: each move of period t becomes a worker-move event right
// after the tick that closes period t's batch, matching the simulator's
// reposition-after-assignment ordering. A deterministic AutoDecide engine
// with EngineConfig.CellIndexGraphs set, replaying the moves Run recorded
// through SimConfig.OnMove, reproduces Run's revenue exactly.
func ReplayInstanceMobility(e *Engine, in *Instance, moves []Move) (int, error) {
	return engine.ReplayMobility(e, in, moves)
}

// ReplayOpts parameterizes ReplayInstanceWith: an optional mobility trace,
// a starting period (resuming after Engine.Restore), and a per-period hook
// (periodic checkpoints).
type ReplayOpts = engine.ReplayOpts

// ReplayInstanceWith is the general replay driver: ReplayInstance and
// ReplayInstanceMobility are thin wrappers over it. Use From =
// Engine.RestoredPeriod() + 1 to resume an interrupted replay after a
// checkpoint restore, and AfterPeriod to write periodic checkpoints.
func ReplayInstanceWith(e *Engine, in *Instance, opts ReplayOpts) (int, error) {
	return engine.ReplayWith(e, in, opts)
}

// GenerateMobilityTrace fabricates a random per-period worker mobility
// trace for an instance (workers drift toward neighboring cells), for
// stress-testing the engine's move/migration path. For the
// demand-following trace of a specific simulation, record SimConfig.OnMove
// instead.
func GenerateMobilityTrace(in *Instance, cfg MobilityConfig) []Move {
	return workload.MobilityTrace(in, cfg)
}

// TaskArrivalEvent announces a new task to the engine.
func TaskArrivalEvent(t Task) EngineEvent { return engine.TaskArrival(t) }

// WorkerOnlineEvent adds a worker to the engine's pool.
func WorkerOnlineEvent(w Worker) EngineEvent { return engine.WorkerOnline(w) }

// WorkerOfflineEvent withdraws a worker by ID, repairing any provisional
// assignment it holds.
func WorkerOfflineEvent(id int) EngineEvent { return engine.WorkerOffline(id) }

// WorkerMoveEvent relocates an online worker. Within a shard the pool entry
// moves in place; across shards the engine migrates the worker with a
// retire/admit handshake so no ghost supply survives.
func WorkerMoveEvent(id int, to Point) EngineEvent { return engine.WorkerMove(id, to) }

// AcceptDecisionEvent is a requester's reply to a price quote (engines
// running with AutoDecide disabled).
func AcceptDecisionEvent(taskID int, accept bool) EngineEvent {
	return engine.AcceptDecision(taskID, accept)
}

// TickEvent advances the engine clock; crossing a window boundary closes
// and prices the open batch of every shard.
func TickEvent(period int) EngineEvent { return engine.Tick(period) }

// ErrEngineBusy is returned by Engine.TrySubmit when the bounded ingest
// queue is full — the hook admission control (the dispatch server's 429
// path) is built on.
var ErrEngineBusy = engine.ErrBusy

// EngineQueueDepths reports the engine's bounded-queue occupancy, for
// backpressure monitoring.
type EngineQueueDepths = engine.QueueDepths

// DefaultEngineShards is the shard count used when none is specified:
// min(GOMAXPROCS, cells) floored at 1 (an engine never needs more shards
// than cells, and a space without cells gets one on any host).
func DefaultEngineShards(cells int) int { return engine.DefaultShards(cells) }

type (
	// DispatchServer is the network-facing dispatch service: HTTP event
	// ingestion with admission control, streaming quote delivery (SSE +
	// long-poll), one isolated engine per tenant, Prometheus /metrics, and
	// graceful drain with atomic checkpoints. See internal/server for the
	// endpoint table.
	DispatchServer = server.Server
	// DispatchConfig parameterizes NewDispatchServer.
	DispatchConfig = server.Config
	// DispatchTenant is one city's isolated engine + quote hub inside a
	// DispatchServer.
	DispatchTenant = server.Tenant
	// TenantConfig declares one tenant: name, engine configuration, and
	// optional checkpoint/restore paths.
	TenantConfig = server.TenantConfig
	// IngestResult is the JSON body of every ingest response; Accepted is
	// the durably submitted event count a client resumes after on 429.
	IngestResult = server.IngestResult
	// WireEvent and WireDecision are the JSON wire forms of engine events
	// and decisions.
	WireEvent    = server.WireEvent
	WireDecision = server.WireDecision
	// LoadGenConfig / LoadGenReport parameterize RunLoadGen.
	LoadGenConfig = loadgen.Config
	LoadGenReport = loadgen.Report
)

// NewDispatchServer assembles the dispatch service. The returned server is
// an http.Handler; serve it with net/http and call Drain on shutdown.
func NewDispatchServer(cfg DispatchConfig) (*DispatchServer, error) { return server.New(cfg) }

// RunLoadGen streams an instance's canonical event order into a dispatch
// server over HTTP as chunked NDJSON, following the 429 resume protocol:
// the loopback driver behind `cmd/serve -selftest` and the e2e tests.
func RunLoadGen(cfg LoadGenConfig, in *Instance) (LoadGenReport, error) {
	return loadgen.Run(cfg, in)
}

// WriteEngineCheckpoint checkpoints the engine to path atomically
// (tmp + rename in the destination directory).
func WriteEngineCheckpoint(e *Engine, path string) error {
	return server.WriteCheckpointAtomic(e, path)
}

// Demand distribution families for SyntheticConfig.
const (
	// DemandNormal draws valuations from truncated normals (default).
	DemandNormal = workload.DemandNormal
	// DemandExponential draws valuations from truncated exponentials
	// (Figure 10).
	DemandExponential = workload.DemandExponential
)

// Beijing dataset variants.
const (
	// BeijingRush is dataset #1 (5pm-7pm, heavy demand).
	BeijingRush = workload.BeijingRush
	// BeijingNight is dataset #2 (0am-2am, light demand).
	BeijingNight = workload.BeijingNight
)

// Distance metrics for SyntheticConfig.DistanceMetric.
const (
	// MetricEuclidean is the straight-line travel distance (default).
	MetricEuclidean = workload.MetricEuclidean
	// MetricManhattan is the L1 travel distance.
	MetricManhattan = workload.MetricManhattan
	// MetricRoadNetwork routes trips over a synthetic grid-city road
	// network.
	MetricRoadNetwork = workload.MetricRoadNetwork
)

// NewSquareGrid builds an n x n grid over the square region [0, side]^2 —
// the geometry every workload generator uses. Library users assembling
// custom markets (e.g. feeding the streaming engine) start here.
func NewSquareGrid(side float64, n int) Grid { return geo.SquareGrid(side, n) }

// NewGridOver builds a cols x rows grid over an arbitrary region.
func NewGridOver(region Rect, cols, rows int) Grid { return geo.NewGrid(region, cols, rows) }

// SmoothPrices applies one pass of spatial price smoothing across
// neighboring cells (Section 4.2.3's practical note). prices is indexed by
// cell id with 0 for an unpriced cell — the shape of MAPS.LastPrices. Any
// spatial backend works; a Grid passes directly.
func SmoothPrices(space Space, prices []float64, w float64) []float64 {
	return core.SmoothPrices(space, prices, w)
}

// PriceGap returns the largest absolute price difference between
// neighboring priced cells of a per-cell price vector (0 = unpriced).
func PriceGap(space Space, prices []float64) float64 {
	return core.PriceGap(space, prices)
}

// DefaultParams returns the paper's experimental pricing parameters:
// prices in [1, 5], ladder step 0.5, accuracy (0.2, 0.01).
func DefaultParams() Params { return core.DefaultParams() }

// DefaultSimConfig returns the default simulator configuration.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewBaseP builds the base pricing strategy (calibrate it before use).
func NewBaseP(p Params) (*BaseP, error) { return core.NewBaseP(p) }

// NewMAPS builds the MAPS strategy around a base price.
func NewMAPS(p Params, basePrice float64) (*MAPS, error) { return core.NewMAPS(p, basePrice) }

// NewSDR builds the supply-demand-ratio baseline.
func NewSDR(p Params, basePrice float64) (*SDR, error) { return core.NewSDR(p, basePrice) }

// NewSDE builds the exponential supply-demand-difference baseline.
func NewSDE(p Params, basePrice float64) (*SDE, error) { return core.NewSDE(p, basePrice) }

// NewCappedUCB builds the per-grid independent UCB baseline.
func NewCappedUCB(p Params, basePrice float64) (*CappedUCB, error) {
	return core.NewCappedUCB(p, basePrice)
}

// Run simulates an instance under a strategy and reports revenue and
// resource metrics.
func Run(in *Instance, strat Strategy, cfg SimConfig) (SimResult, error) {
	return sim.Run(in, strat, cfg)
}

// Synthetic generates a Table 3 synthetic market instance plus the hidden
// valuation model (for calibration oracles).
func Synthetic(cfg SyntheticConfig) (*Instance, ValuationModel, error) {
	return workload.Synthetic(cfg)
}

// BeijingLike generates the Beijing-like stand-in for the paper's real
// datasets (Table 4).
func BeijingLike(cfg BeijingConfig) (*Instance, ValuationModel, error) {
	return workload.BeijingLike(cfg)
}

// BeijingRoad generates the road-network Beijing-like workload: the Table 4
// populations on a synthetic street network, with node-snapped positions,
// shortest-path travel distances, and road-cluster local markets. The
// returned instance carries the RoadSpace in Instance.Space.
func BeijingRoad(cfg RoadConfig) (*Instance, ValuationModel, *RoadSpace, error) {
	return workload.BeijingRoad(cfg)
}

// NewRunner returns the experiment runner with paper-scale defaults.
func NewRunner() *Runner { return exp.NewRunner() }

// BuildPeriodContext assembles the strategy-facing view of one period:
// task projections, the range-constraint bipartite graph, and per-cell
// groupings. Library users driving strategies outside the simulator (e.g.
// pricing live data one batch at a time) use this as the entry point. Any
// spatial backend works; a Grid passes directly.
func BuildPeriodContext(space Space, period int, tasks []Task, workers []Worker) *PeriodContext {
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
func (b *PeriodContextBuilder) Build(space Space, period int, tasks []Task, workers []Worker) *PeriodContext {
	graph := market.BuildBipartiteCellIndexScratch(space, tasks, workers, &b.cellIx)
	return core.BuildContextScratch(space, period, tasks, workers, graph, &b.ctx)
}

// OracleFromModel adapts a valuation model into a calibration oracle with
// its own deterministic random stream; it stands in for "requesters who
// recently issued tasks" when simulating.
func OracleFromModel(model ValuationModel, seed int64) ProbeOracle {
	return &modelOracle{model: model, rng: rand.New(rand.NewSource(seed))}
}

type modelOracle struct {
	model ValuationModel
	rng   *rand.Rand
}

// Probe implements ProbeOracle.
func (o *modelOracle) Probe(cell int, price float64) bool {
	return price <= o.model.Dist(cell).Sample(o.rng)
}

// ExpectedRevenueExact computes the exact expected total revenue of pricing
// `tasks` at `prices` against known acceptance probabilities, by full
// possible-world enumeration (Definitions 5–6). It is exponential in the
// task count (limit 20) and intended for analysis and testing.
func ExpectedRevenueExact(space Space, tasks []Task, workers []Worker, prices []float64, model ValuationModel) (float64, error) {
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
