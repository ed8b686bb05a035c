// Package exp reproduces the paper's evaluation: one driver per figure panel
// group (Figures 6–8 and 10) plus the ablations EXPERIMENTS.md indexes. Each
// driver sweeps a parameter, runs the five pricing strategies on identical
// workloads, and returns a Series whose revenue / running-time / memory rows
// mirror the paper's plots.
package exp

import (
	"fmt"
	"math/rand"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/sim"
	"spatialcrowd/internal/workload"
)

// StrategyOrder is the column order of every table, matching the paper's
// legends.
var StrategyOrder = []string{"MAPS", "BaseP", "SDR", "SDE", "CappedUCB"}

// Runner configures how the experiments execute.
type Runner struct {
	// Seed drives workload generation and calibration sampling.
	Seed int64
	// Scale divides all population sizes (1 = the paper's scale). The
	// benchmark harness uses larger scales to keep iterations short; the
	// command-line harness defaults to 1.
	Scale int
	// ProbeBudget caps base pricing's per-price calibration probes
	// (0 = the full Hoeffding h(p), faithful but slow on fine grids).
	ProbeBudget int
	// Sim is passed to every simulation run.
	Sim sim.Config
}

// NewRunner returns the default experiment configuration: paper scale, the
// full Hoeffding calibration budget (Algorithm 1's h(p)), and the default
// simulator settings. The calibration quality matters: it both fixes the
// base price and warm-starts the UCB learners, and under-sampling it erodes
// MAPS's margin over the unified base price.
func NewRunner() *Runner {
	return &Runner{Seed: 42, Scale: 1, ProbeBudget: 0, Sim: sim.DefaultConfig()}
}

// scaled divides a population by the runner's scale, keeping at least 1.
func (r *Runner) scaled(n int) int {
	s := r.Scale
	if s <= 1 {
		return n
	}
	if n/s < 1 {
		return 1
	}
	return n / s
}

// Point is one x-axis tick of a series: the label and each strategy's result.
type Point struct {
	Label   string
	Results map[string]sim.Result
}

// Series is one column of a paper figure: a parameter sweep with all
// strategies' revenue, time, and memory.
type Series struct {
	ID     string // experiment id from EXPERIMENTS.md's index, e.g. "E1"
	Title  string // e.g. "Fig 6(a,e,i): varying |W|"
	Param  string // x-axis name
	Points []Point
}

// modelOracle adapts the hidden valuation model into base pricing's
// calibration oracle ("requesters who recently have issued tasks").
type modelOracle struct {
	model market.ValuationModel
	rng   *rand.Rand
}

// Probe implements core.ProbeOracle.
func (o *modelOracle) Probe(cell int, price float64) bool {
	return price <= o.model.Dist(cell).Sample(o.rng)
}

// buildStrategies calibrates base pricing against the model and instantiates
// the five strategies around the resulting base price.
func (r *Runner) buildStrategies(model market.ValuationModel, numCells int) ([]core.Strategy, float64, error) {
	params := r.Sim.Params
	basep, err := core.NewBaseP(params)
	if err != nil {
		return nil, 0, err
	}
	oracle := &modelOracle{model: model, rng: rand.New(rand.NewSource(r.Seed + 1))}
	if err := basep.Calibrate(oracle, numCells, r.ProbeBudget); err != nil {
		return nil, 0, err
	}
	pb := basep.BasePrice()

	maps, err := core.NewMAPS(params, pb)
	if err != nil {
		return nil, 0, err
	}
	sdr, err := core.NewSDR(params, pb)
	if err != nil {
		return nil, 0, err
	}
	sde, err := core.NewSDE(params, pb)
	if err != nil {
		return nil, 0, err
	}
	cucb, err := core.NewCappedUCB(params, pb)
	if err != nil {
		return nil, 0, err
	}
	// The platform keeps the observations base pricing paid for: both UCB
	// learners continue from the calibration statistics rather than cold.
	basep.WarmStart(maps.CellStats)
	basep.WarmStart(cucb.CellStats)
	return []core.Strategy{maps, basep, sdr, sde, cucb}, pb, nil
}

// runInstance executes all strategies on one instance and returns results
// keyed by strategy name.
func (r *Runner) runInstance(in *market.Instance, model market.ValuationModel) (map[string]sim.Result, error) {
	strategies, _, err := r.buildStrategies(model, in.Grid.NumCells())
	if err != nil {
		return nil, err
	}
	out := make(map[string]sim.Result, len(strategies))
	for _, s := range strategies {
		res, err := sim.Run(in, s, r.Sim)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", s.Name(), err)
		}
		out[s.Name()] = res
	}
	return out, nil
}

// sweepSynthetic runs one synthetic sweep: for each tick, mutate the default
// config, generate, and run all strategies.
func (r *Runner) sweepSynthetic(id, title, param string, ticks []string,
	mutate func(i int, cfg *workload.SyntheticConfig)) (*Series, error) {

	s := &Series{ID: id, Title: title, Param: param}
	for i, tick := range ticks {
		cfg := workload.SyntheticConfig{
			Workers:  r.scaled(5000),
			Requests: r.scaled(20000),
			Seed:     r.Seed,
		}
		mutate(i, &cfg)
		in, model, err := workload.Synthetic(cfg)
		if err != nil {
			return nil, fmt.Errorf("exp %s tick %s: %w", id, tick, err)
		}
		results, err := r.runInstance(in, model)
		if err != nil {
			return nil, fmt.Errorf("exp %s tick %s: %w", id, tick, err)
		}
		s.Points = append(s.Points, Point{Label: tick, Results: results})
	}
	return s, nil
}
