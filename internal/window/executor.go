// Package window is the unified window-execution core: the single canonical
// price -> accept -> assign pipeline that both the offline period simulator
// (internal/sim) and the streaming dispatch engine (internal/engine) drive.
// One Executor owns the batch's bipartite-graph builder, the pricing context,
// the assignment matcher, and all of their scratch arenas, so a caller
// executing one window per batch allocates nothing in steady state — the
// discipline PR-4 established for the engine's shards, now shared by every
// execution path.
//
// A window executes in two phases:
//
//  1. Price: build the task-worker bipartite graph (cell-index or
//     worker-index candidates), assemble the strategy-facing PeriodContext,
//     and ask the Strategy for one unit price per task. A malformed price
//     vector is a typed *PriceCountError, never a panic.
//  2. Resolve: either immediately (ResolveImmediate — requesters decide
//     against their private valuations and accepting tasks are assigned by
//     the exact left-weighted maximum-weight matching) or quoted
//     (ArmQuoted/SettleQuoted — the caller collects requester replies
//     against a match.Incremental and the executor settles the final books).
//
// One Executor serves one goroutine. Each Price (or Rebuild) call
// invalidates the previously returned Priced and everything reachable from
// it; quoted batches must therefore be settled before the next Price — the
// same window-over-window discipline the engine's shards always had.
package window

import (
	"fmt"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/spatial"
)

// GraphMode selects the batch bipartite-graph builder.
type GraphMode uint8

const (
	// GraphCellIndex builds the graph from the spatial cell index — the
	// offline simulator's construction
	// (market.BuildBipartiteCellIndexScratch). Candidate
	// enumeration order, and therefore adjacency order and matching tie
	// breaks, is byte-identical to the simulator's, which is what makes
	// deterministic replay reproduce sim revenue bit for bit.
	GraphCellIndex GraphMode = iota
	// GraphKD builds the graph from market.WorkerIndex, a bucket grid over
	// the worker pool itself (the name predates the grid) — the pairwise
	// scan's edge set and adjacency order, whatever the spatial backend's
	// cells look like; faster on large pools. Over a pool of more than 128
	// workers the graph is lazy: a task's list is enumerated as a search
	// reads it, and the index it reads is rebuilt only at the next Price or
	// Rebuild. Smaller pools get an eager graph.
	GraphKD
)

// PriceCountError reports a Strategy that returned the wrong number of
// prices for a batch — the contract violation both execution paths must
// surface instead of indexing out of bounds.
type PriceCountError struct {
	Strategy string // Strategy.Name()
	Got      int    // prices returned
	Want     int    // tasks in the batch
}

// Error implements error.
func (e *PriceCountError) Error() string {
	return fmt.Sprintf("window: strategy %s returned %d prices for %d tasks",
		e.Strategy, e.Got, e.Want)
}

// Priced is one priced, not-yet-resolved window: the strategy-facing
// context, the batch bipartite graph, and the strategy's prices. It is
// backed by the executor's arenas and valid until the executor's next
// Price or Rebuild call.
type Priced struct {
	Ctx *core.PeriodContext
	// Graph is the batch graph. Its Adj lists are complete in every mode,
	// but a lazy GraphKD graph (pools of more than 128 workers) counts in
	// NumEdges only the entries read so far, not every edge.
	Graph  *match.Graph
	Prices []float64
	// GraphTime and ContextTime are the wall time Rebuild spent producing
	// Graph (cache keys included) and Ctx; PriceTime is the wall time spent
	// inside Strategy.Prices — the simulator's "running time" metric
	// excludes the platform's own work. A GraphKD graph is lazy, so
	// GraphTime covers the index rebuild only; each task's candidates are
	// enumerated inside whichever search reads them first.
	GraphTime   time.Duration
	ContextTime time.Duration
	PriceTime   time.Duration
}

// Outcome is the settled result of one window: the requesters' decisions,
// the committed assignment, and the revenue the platform accrued. Slices
// are backed by the executor's arenas and valid until its next resolve.
type Outcome struct {
	// Accepted flags each task whose requester accepted the offer.
	Accepted      []bool
	AcceptedCount int
	// Served counts assigned tasks; Revenue is the sum of d_r * p_r over
	// them, accumulated in task order (both callers' historical order, so
	// refactoring did not move a single float addition).
	Served  int
	Revenue float64
	// Matching maps task index -> batch-worker index (LeftTo), the
	// committed assignment.
	Matching *match.Matching
	// ConsumedRights lists the consumed batch-worker indices in task order
	// (immediate resolution).
	ConsumedRights []int
	// MatchedRights flags each consumed batch-worker index (quoted
	// settlement).
	MatchedRights []bool
	// MatchTime and ObserveTime split the platform-side assignment cost
	// from the strategy's learning cost (immediate resolution only).
	MatchTime   time.Duration
	ObserveTime time.Duration
}

// Executor owns the canonical window pipeline and its reusable arenas.
// Create one with NewExecutor; it serves a single goroutine.
type Executor struct {
	space spatial.Space
	mode  GraphMode

	// Arenas, reused window over window.
	cellIx  market.CellIndexScratch // graph builder (cell-index mode)
	ix      market.WorkerIndex      // worker bucket grid (GraphKD mode)
	kdGraph *match.Graph            // bipartite graph arena (GraphKD mode)
	ctxSc   core.ContextScratch     // PeriodContext arena
	mw      match.MaxWeightScratch  // immediate-assignment arena
	inc     *match.Incremental      // quoted-batch matcher, reset per quote
	acc     []bool                  // per-task accept flags
	weights []float64               // per-task matching weights
	cons    []int                   // consumed batch-worker indices
	matched []bool                  // per-right matched flags (quoted settle)

	pr  Priced
	out Outcome

	// Amortization layer (SetAmortize): fingerprint-gated reuse of the
	// context, graph, and price vector across consecutive windows. Off by
	// default; transparent when on — cache hits return content bit-identical
	// to a fresh rebuild.
	am        amortizer
	lastGraph *match.Graph // graph returned by the previous Rebuild
}

// amortizer is the executor's window-over-window cache state. Fingerprints
// cover everything a strategy or graph builder can see (core.TasksFingerprint
// deliberately skips task IDs and hidden valuations); a hit therefore
// guarantees the recomputation being skipped would have produced identical
// output, which is what keeps cached and fresh runs revenue-equal to the
// bit.
type amortizer struct {
	enabled bool
	have    bool // fingerprints below describe the previous window

	taskFP   uint64
	workerFP uint64

	// Per-window comparison results, set by Rebuild for Price to consume.
	sameTasks   bool
	sameWorkers bool

	// Price-vector cache for core.PriceCacheable strategies: a private copy
	// of the previous window's prices and the strategy state version it was
	// computed under.
	havePrice bool
	priceVer  uint64
	prices    []float64

	stats CacheStats
}

// CacheStats counts the amortization layer's cache outcomes. Context
// counters are per window: every Rebuild under amortization scores exactly
// one context hit or miss, so CtxHits + CtxMisses equals the number of
// windows executed. Price counters likewise score one outcome per Price
// call (strategies that do not opt into price caching always score a
// miss). KDRebuilds counts the worker-index builds of GraphKD mode (one per
// window whose graph was not reused); every build is a full rebuild, so
// KDIncremental stays zero and remains only for the stats wire format.
type CacheStats struct {
	CtxHits       int64
	CtxMisses     int64
	PriceHits     int64
	PriceMisses   int64
	KDIncremental int64
	KDRebuilds    int64
}

// Add returns the field-wise sum of c and o.
func (c CacheStats) Add(o CacheStats) CacheStats {
	c.CtxHits += o.CtxHits
	c.CtxMisses += o.CtxMisses
	c.PriceHits += o.PriceHits
	c.PriceMisses += o.PriceMisses
	c.KDIncremental += o.KDIncremental
	c.KDRebuilds += o.KDRebuilds
	return c
}

// Sub returns the field-wise difference c - o.
func (c CacheStats) Sub(o CacheStats) CacheStats {
	c.CtxHits -= o.CtxHits
	c.CtxMisses -= o.CtxMisses
	c.PriceHits -= o.PriceHits
	c.PriceMisses -= o.PriceMisses
	c.KDIncremental -= o.KDIncremental
	c.KDRebuilds -= o.KDRebuilds
	return c
}

// NewExecutor returns an executor over the given spatial backend and graph
// mode.
func NewExecutor(space spatial.Space, mode GraphMode) *Executor {
	return &Executor{space: space, mode: mode}
}

// Space reports the executor's spatial backend.
func (x *Executor) Space() spatial.Space { return x.space }

// Mode reports the executor's graph-builder mode.
func (x *Executor) Mode() GraphMode { return x.mode }

// SetAmortize toggles the amortized-rebuild layer. When on, each Rebuild
// fingerprints the window's tasks and workers and reuses the previous
// window's context (same tasks), graph (same tasks and workers), and — for
// core.PriceCacheable strategies via Price — price vector (same inputs and
// strategy state version). Disabling also invalidates the cache.
func (x *Executor) SetAmortize(on bool) {
	x.am.enabled = on
	if !on {
		x.InvalidateCache()
	}
}

// Amortize reports whether the amortized-rebuild layer is on.
func (x *Executor) Amortize() bool { return x.am.enabled }

// InvalidateCache drops every cached window artifact; the next Rebuild and
// Price recompute from scratch. Callers restoring external state (engine
// checkpoint restore) use it to keep the cache honest.
func (x *Executor) InvalidateCache() {
	x.am.have = false
	x.am.havePrice = false
	x.am.sameTasks, x.am.sameWorkers = false, false
}

// CacheStats returns the cumulative cache counters.
func (x *Executor) CacheStats() CacheStats { return x.am.stats }

// Price executes phase one of a window: build the batch graph and context
// over the executor's arenas and price the tasks with the strategy. The
// returned Priced is valid until the next Price or Rebuild call. A strategy
// returning the wrong number of prices yields a *PriceCountError and leaves
// nothing half-resolved.
func (x *Executor) Price(strat core.Strategy, period int, tasks []market.Task, workers []market.Worker) (*Priced, error) {
	pr := x.Rebuild(period, tasks, workers)
	if x.am.enabled {
		if pc, ok := strat.(core.PriceCacheable); ok {
			ver := pc.PriceStateVersion()
			if x.am.havePrice && x.am.sameTasks && x.am.sameWorkers && ver == x.am.priceVer {
				// Inputs and strategy state are unchanged since the cached
				// vector was computed, so by the PriceCacheable contract the
				// strategy would return exactly these prices again.
				pr.Prices = x.am.prices
				x.am.stats.PriceHits++
				return pr, nil
			}
			start := time.Now() //lint:detsource PriceTime metric only
			prices := strat.Prices(pr.Ctx)
			pr.PriceTime = time.Since(start) //lint:detsource PriceTime metric only
			if len(prices) != len(tasks) {
				x.am.havePrice = false
				return nil, &PriceCountError{Strategy: strat.Name(), Got: len(prices), Want: len(tasks)}
			}
			pr.Prices = prices
			// Cache a private copy: strategies may reuse their price buffer.
			x.am.prices = append(x.am.prices[:0], prices...)
			x.am.priceVer = ver
			x.am.havePrice = true
			x.am.stats.PriceMisses++
			return pr, nil
		}
		x.am.stats.PriceMisses++
	}
	start := time.Now() //lint:detsource PriceTime metric only
	prices := strat.Prices(pr.Ctx)
	pr.PriceTime = time.Since(start) //lint:detsource PriceTime metric only
	if len(prices) != len(tasks) {
		return nil, &PriceCountError{Strategy: strat.Name(), Got: len(prices), Want: len(tasks)}
	}
	pr.Prices = prices
	return pr, nil
}

// Rebuild reconstructs the graph and context of a batch without invoking
// the strategy, leaving Prices nil. Checkpoint restore uses it to re-arm a
// pending quoted batch against prices recorded earlier; construction is
// deterministic, so the rebuilt adjacency is identical to the original.
func (x *Executor) Rebuild(period int, tasks []market.Task, workers []market.Worker) *Priced {
	t0 := time.Now() //lint:detsource GraphTime metric only
	sameTasks, sameWorkers := false, false
	if x.am.enabled {
		taskFP := core.TasksFingerprint(tasks)
		workerFP := core.WorkersFingerprint(workers)
		// The length guard backs up the fingerprint: a (vanishingly unlikely)
		// collision across different batch sizes must not slice stale views.
		sameTasks = x.am.have && taskFP == x.am.taskFP && x.ctxSc.Len() == len(tasks)
		sameWorkers = x.am.have && workerFP == x.am.workerFP
		x.am.sameTasks, x.am.sameWorkers = sameTasks, sameWorkers
		x.am.taskFP, x.am.workerFP = taskFP, workerFP
		x.am.have = true
	}

	var graph *match.Graph
	if sameTasks && sameWorkers && x.lastGraph != nil {
		// Identical inputs: the previous window's graph is exactly what the
		// builder would produce, and nothing has touched it since.
		graph = x.lastGraph
	} else {
		graph = x.buildGraph(tasks, workers)
	}
	t1 := time.Now() //lint:detsource GraphTime/ContextTime metrics only
	var ctx *core.PeriodContext
	if sameTasks {
		ctx = core.ReuseContextScratch(&x.ctxSc, period, tasks, workers, graph)
		x.am.stats.CtxHits++
	} else {
		ctx = core.BuildContextScratch(x.space, period, tasks, workers, graph, &x.ctxSc)
		if x.am.enabled {
			x.am.stats.CtxMisses++
		}
	}
	x.pr = Priced{Ctx: ctx, Graph: graph,
		GraphTime: t1.Sub(t0), ContextTime: time.Since(t1)} //lint:detsource ContextTime metric only
	x.lastGraph = graph
	return &x.pr
}

// buildGraph constructs the batch bipartite graph in the executor's mode.
// Both builders emit each task's workers in ascending batch index from a
// structure rebuilt for this window alone, so the graph is a function of the
// batch and of nothing the executor saw before.
func (x *Executor) buildGraph(tasks []market.Task, workers []market.Worker) *match.Graph {
	if x.mode != GraphKD {
		return market.BuildBipartiteCellIndexScratch(x.space, tasks, workers, &x.cellIx)
	}
	if x.kdGraph == nil {
		x.kdGraph = match.NewGraph(len(tasks), len(workers))
	}
	if x.am.enabled {
		x.am.stats.KDRebuilds++
	}
	x.ix.Reindex(workers)
	return x.ix.BuildGraphInto(tasks, x.kdGraph)
}

// ResolveImmediate executes phase two in immediate mode: requesters decide
// against their private valuations (the raw tasks parallel to pr.Ctx.Tasks),
// accepting tasks are assigned with the exact left-weighted maximum-weight
// matching, and the strategy observes the outcomes. Observe runs before the
// caller compacts its worker pool, so strategies may still read the context.
func (x *Executor) ResolveImmediate(strat core.Strategy, pr *Priced, tasks []market.Task) *Outcome {
	n := len(tasks)
	accepted := resizeZeroed(&x.acc, n)
	weights := resizeZeroed(&x.weights, n) // rejected tasks weigh 0, never matched
	acceptedCount := 0
	for i := range tasks {
		if tasks[i].Accepts(pr.Prices[i]) {
			accepted[i] = true
			acceptedCount++
			weights[i] = pr.Ctx.Tasks[i].Distance * pr.Prices[i]
		}
	}
	mt := time.Now() //lint:detsource MatchTime metric only
	m, _ := match.MaxWeightByLeftScratch(pr.Graph, weights, &x.mw)
	matchTime := time.Since(mt) //lint:detsource MatchTime metric only

	consumed := x.cons[:0]
	served, revenue := 0, 0.0
	for i := range tasks {
		if accepted[i] {
			if r := m.LeftTo[i]; r >= 0 {
				served++
				revenue += weights[i]
				consumed = append(consumed, r)
			}
		}
	}
	x.cons = consumed

	ot := time.Now() //lint:detsource ObserveTime metric only
	strat.Observe(pr.Ctx, pr.Prices, accepted)
	x.out = Outcome{
		Accepted: accepted, AcceptedCount: acceptedCount,
		Served: served, Revenue: revenue,
		Matching: m, ConsumedRights: consumed,
		MatchTime: matchTime, ObserveTime: time.Since(ot), //lint:detsource ObserveTime metric only
	}
	return &x.out
}

// ArmQuoted re-arms the executor's incremental matcher over the priced
// batch's graph for quoted resolution: the caller augments it one requester
// reply at a time (and repairs around withdrawn workers) and finally settles
// with SettleQuoted.
func (x *Executor) ArmQuoted(pr *Priced) *match.Incremental {
	if x.inc == nil {
		x.inc = match.NewIncremental(pr.Graph)
	} else {
		x.inc.Reset(pr.Graph)
	}
	return x.inc
}

// SettleQuoted closes the books on a quoted batch: the matching state at
// this instant is what the platform commits. Given the batch's context,
// prices, matcher, and per-task accept flags, it computes the finalized
// outcome (MatchedRights flags the consumed batch workers) and feeds the
// accept/reject outcomes to the strategy.
func (x *Executor) SettleQuoted(strat core.Strategy, ctx *core.PeriodContext, prices []float64,
	inc *match.Incremental, accepted []bool) *Outcome {
	m := inc.Matching()
	matched := resizeZeroed(&x.matched, len(ctx.Workers))
	acceptedCount, served, revenue := 0, 0, 0.0
	for i, acc := range accepted {
		if !acc {
			continue
		}
		acceptedCount++
		if r := m.LeftTo[i]; r >= 0 {
			matched[r] = true
			served++
			revenue += ctx.Tasks[i].Distance * prices[i]
		}
	}
	strat.Observe(ctx, prices, accepted)
	x.out = Outcome{
		Accepted: accepted, AcceptedCount: acceptedCount,
		Served: served, Revenue: revenue,
		Matching: m, MatchedRights: matched,
	}
	return &x.out
}

// resizeZeroed returns *p resized to n zero-valued entries, reusing
// capacity.
func resizeZeroed[T any](p *[]T, n int) []T {
	s := *p
	if cap(s) >= n {
		s = s[:n]
		clear(s)
	} else {
		s = make([]T, n)
	}
	*p = s
	return s
}
