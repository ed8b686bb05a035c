// Package sim drives the end-to-end pricing simulation of Section 5: for
// each time period it shows the issued tasks and available workers to a
// pricing strategy, reveals the requesters' accept/reject decisions against
// their private valuations, assigns workers to accepting tasks with a
// maximum-weight bipartite matching, accrues platform revenue, and tracks
// the running-time and memory metrics the paper's figures report.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
	"spatialcrowd/internal/window"
)

// Config controls one simulation run.
type Config struct {
	Params core.Params
	// MemoryEvery samples runtime heap statistics every k periods (0
	// disables sampling; 1 samples every period). Sampling is a
	// stop-the-world operation, so large-scale runs use a coarse cadence.
	MemoryEvery int
	// Trace records a per-period time series (PeriodStats) and online price
	// quantiles in the result. Off by default: the series costs O(T) memory.
	Trace bool
	// RepositionSpeed, when positive and the strategy exposes per-grid
	// prices (core.GridPricer), moves each idle worker this many distance
	// units per period toward the highest-priced grid among its current and
	// neighboring cells — the supply response the paper's practical note (i)
	// anticipates ("higher unit price ... will motivate more drivers to move
	// to these regions"). 0 disables repositioning.
	RepositionSpeed float64
	// OnMove, when set, receives every repositioning step as a
	// market.Move — the mobility trace of the run. Replaying the instance
	// through a deterministic engine with the same trace
	// (engine.ReplayMobility) reproduces this run event for event, so
	// replay equivalence covers mobility.
	OnMove func(market.Move)
	// Amortize turns on the executor's fingerprint-gated amortized-rebuild
	// layer (window.Executor.SetAmortize). Results are bit-identical either
	// way; amortization only changes how much work repeats across periods
	// whose market content did not change.
	Amortize bool
}

// PeriodStats is one period's slice of the simulation trace.
type PeriodStats struct {
	Period    int
	Tasks     int
	Workers   int // workers available at pricing time
	Accepted  int
	Served    int
	Revenue   float64
	MeanPrice float64 // average offered unit price over the period's tasks
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{Params: core.DefaultParams(), MemoryEvery: 16}
}

// Result aggregates one run's outcome.
type Result struct {
	Strategy string
	// Revenue is the total platform revenue: sum of d_r * p_r over all
	// served tasks across all periods (Definition 5 summed over t).
	Revenue float64
	// Offered / Accepted / Served count tasks priced, tasks whose requester
	// accepted, and tasks actually assigned a worker.
	Offered  int
	Accepted int
	Served   int
	// StrategyTime is the wall time spent inside the strategy (Prices +
	// Observe) over all periods — the paper's "running time" panels, which
	// exclude the platform's own assignment step shared by all strategies.
	StrategyTime time.Duration
	// MatchingTime is the platform-side assignment matching time.
	MatchingTime time.Duration
	// PeakHeapMB is the maximum sampled heap occupancy during the run.
	PeakHeapMB float64
	// Trace is the per-period time series (only when Config.Trace is set).
	Trace []PeriodStats
	// PriceMedian and PriceP90 are online quantile estimates of the offered
	// unit prices (only when Config.Trace is set; NaN with no offers).
	PriceMedian float64
	PriceP90    float64
}

// Run simulates the instance under the given strategy. The instance must
// carry pre-assigned private valuations (see workload generators). Workers
// persist across periods until they are either consumed by an assignment or
// their availability duration lapses; tasks expire at the end of their
// period, as in the paper's batch mode.
//
// Run is a thin driver over the unified window-execution core
// (internal/window): each period's price -> accept -> assign pipeline runs
// through the same window.Executor the streaming engine's shards use, so
// the two paths cannot drift apart.
func Run(in *market.Instance, strat core.Strategy, cfg Config) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if strat == nil {
		return Result{}, fmt.Errorf("sim: nil strategy")
	}
	res := Result{Strategy: strat.Name()}

	var medianQ, p90Q *stats.PSquare
	if cfg.Trace {
		res.Trace = make([]PeriodStats, 0, in.Periods)
		medianQ, _ = stats.NewPSquare(0.5)
		p90Q, _ = stats.NewPSquare(0.9)
	}

	space := in.Spatial()
	exec := window.NewExecutor(space, window.GraphCellIndex)
	exec.SetAmortize(cfg.Amortize)
	tasksByPeriod := in.TasksByPeriod()
	arrivals := in.WorkersByStart()

	// The active pool holds workers that have arrived, are unconsumed, and
	// whose duration has not lapsed.
	active := make([]market.Worker, 0, 1024)
	var drop []bool // reused consumed-worker marks

	var ms runtime.MemStats
	sampleMem := func(period int) {
		if cfg.MemoryEvery <= 0 || period%cfg.MemoryEvery != 0 {
			return
		}
		runtime.ReadMemStats(&ms)
		if mb := float64(ms.HeapAlloc) / (1 << 20); mb > res.PeakHeapMB {
			res.PeakHeapMB = mb
		}
	}

	for t := 0; t < in.Periods; t++ {
		// Admit new arrivals, evict expired workers.
		active = append(active, arrivals[t]...)
		live := active[:0]
		for _, w := range active {
			if w.ActiveAt(t) {
				live = append(live, w)
			}
		}
		active = live

		tasks := tasksByPeriod[t]
		if len(tasks) == 0 {
			sampleMem(t)
			continue
		}
		poolAtPricing := len(active)

		pr, err := exec.Price(strat, t, tasks, active)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		out := exec.ResolveImmediate(strat, pr, tasks)
		res.StrategyTime += pr.PriceTime + out.ObserveTime
		res.MatchingTime += out.MatchTime
		res.Offered += len(tasks)
		res.Accepted += out.AcceptedCount
		res.Served += out.Served
		res.Revenue += out.Revenue

		// Matched workers are consumed: compact the pool preserving order.
		if len(out.ConsumedRights) > 0 {
			if cap(drop) >= len(active) {
				drop = drop[:len(active)]
				clear(drop)
			} else {
				drop = make([]bool, len(active))
			}
			for _, r := range out.ConsumedRights {
				drop[r] = true
			}
			live = active[:0]
			for wi, w := range active {
				if !drop[wi] {
					live = append(live, w)
				}
			}
			active = live
		}

		if cfg.RepositionSpeed > 0 {
			if gp, ok := strat.(core.GridPricer); ok {
				repositionWorkers(space, t, active, gp.GridPrices(), cfg.RepositionSpeed, cfg.OnMove)
			}
		}

		if cfg.Trace {
			sum := 0.0
			for _, p := range pr.Prices {
				sum += p
				medianQ.Add(p)
				p90Q.Add(p)
			}
			res.Trace = append(res.Trace, PeriodStats{
				Period:    t,
				Tasks:     len(tasks),
				Workers:   poolAtPricing,
				Accepted:  out.AcceptedCount,
				Served:    out.Served,
				Revenue:   out.Revenue,
				MeanPrice: sum / float64(len(tasks)),
			})
		}

		sampleMem(t)
	}
	if cfg.Trace {
		res.PriceMedian = medianQ.Quantile()
		res.PriceP90 = p90Q.Quantile()
	}
	return res, nil
}

// repositionWorkers drifts each idle worker toward the center of the
// best-priced cell among its own and neighboring cells, at the given speed.
// A worker already in the locally best cell keeps converging to that cell's
// center, putting it within reach of the cell's demand. Every actual
// relocation is reported through onMove (when set) as the move of the given
// period, so the run's mobility can be replayed elsewhere. gridPrices is
// indexed by cell id, 0 (or past the end) for an unpriced cell.
func repositionWorkers(space spatial.Space, period int, workers []market.Worker,
	gridPrices []float64, speed float64, onMove func(market.Move)) {
	if !slices.ContainsFunc(gridPrices, func(p float64) bool { return p > 0 }) {
		return // nothing priced, no surge to follow
	}
	price := func(cell int) float64 {
		if cell < len(gridPrices) {
			return gridPrices[cell]
		}
		return 0
	}
	var buf []int // reused neighbor buffer: one walk per worker per period
	for i := range workers {
		w := &workers[i]
		cur := space.CellOf(w.Loc)
		bestCell, bestPrice := cur, price(cur)
		buf = space.NeighborsAppend(cur, buf[:0])
		for _, nb := range buf {
			if p := price(nb); p > bestPrice {
				bestCell, bestPrice = nb, p
			}
		}
		target := space.CellCenter(bestCell)
		d := w.Loc.Dist(target)
		if d == 0 {
			continue
		}
		if d <= speed {
			w.Loc = target
		} else {
			w.Loc = w.Loc.Add(target.Add(w.Loc.Scale(-1)).Scale(speed / d))
		}
		if onMove != nil {
			onMove(market.Move{Period: period, WorkerID: w.ID, To: w.Loc})
		}
	}
}
