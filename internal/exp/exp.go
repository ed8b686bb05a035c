// Package exp reproduces the paper's evaluation: one driver per figure panel
// group (Figures 6–8 and 10) plus the ablations EXPERIMENTS.md indexes. Each
// driver sweeps a parameter, runs the five pricing strategies on identical
// workloads, and returns a Series whose revenue / running-time / memory rows
// mirror the paper's plots.
package exp

import (
	"fmt"
	"strings"

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

// Calibrate runs base pricing's calibration (Algorithm 1) over numCells
// cells against the hidden valuation model, probing each ladder price
// probes times per cell (0 = the full Hoeffding h(p)). The calibrated BaseP
// fixes p_b and holds the observations the UCB learners warm-start from.
func Calibrate(params core.Params, model market.ValuationModel, numCells, probes int, seed int64) (*core.BaseP, error) {
	basep, err := core.NewBaseP(params)
	if err != nil {
		return nil, err
	}
	if err := basep.Calibrate(market.NewModelOracle(model, seed), numCells, probes); err != nil {
		return nil, err
	}
	return basep, nil
}

// NewStrategy builds a fresh instance of the named strategy (one of
// StrategyOrder, any case) around the calibrated base: BaseP is a new copy
// priced at p_b, and the UCB learners (MAPS, CappedUCB) continue from the
// calibration statistics base pricing paid for rather than cold. Every call
// returns a private instance, so it also serves as a per-shard factory.
func NewStrategy(name string, params core.Params, base *core.BaseP) (core.Strategy, error) {
	pb := base.BasePrice()
	switch strings.ToLower(name) {
	case "maps":
		m, err := core.NewMAPS(params, pb)
		if err != nil {
			return nil, err
		}
		base.WarmStart(m.CellStats)
		return m, nil
	case "basep":
		b, err := core.NewBaseP(params)
		if err != nil {
			return nil, err
		}
		b.SetBasePrice(pb)
		return b, nil
	case "sdr":
		return core.NewSDR(params, pb)
	case "sde":
		return core.NewSDE(params, pb)
	case "cappeducb":
		c, err := core.NewCappedUCB(params, pb)
		if err != nil {
			return nil, err
		}
		base.WarmStart(c.CellStats)
		return c, nil
	}
	return nil, fmt.Errorf("exp: unknown strategy %q (want one of %s)", name, strings.Join(StrategyOrder, ", "))
}

// buildStrategies calibrates base pricing against the model and builds the
// five strategies of StrategyOrder around the resulting base price.
func (r *Runner) buildStrategies(model market.ValuationModel, numCells int) ([]core.Strategy, float64, error) {
	params := r.Sim.Params
	basep, err := Calibrate(params, model, numCells, r.ProbeBudget, r.Seed+1)
	if err != nil {
		return nil, 0, err
	}
	out := make([]core.Strategy, len(StrategyOrder))
	for i, name := range StrategyOrder {
		if out[i], err = NewStrategy(name, params, basep); err != nil {
			return nil, 0, err
		}
	}
	return out, basep.BasePrice(), nil
}

// runInstance executes all strategies on one instance and returns results
// keyed by strategy name, plus the calibrated base price.
func (r *Runner) runInstance(in *market.Instance, model market.ValuationModel) (map[string]sim.Result, float64, error) {
	strategies, pb, err := r.buildStrategies(model, in.Spatial().NumCells())
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]sim.Result, len(strategies))
	for _, s := range strategies {
		res, err := sim.Run(in, s, r.Sim)
		if err != nil {
			return nil, 0, fmt.Errorf("exp: %s: %w", s.Name(), err)
		}
		out[s.Name()] = res
	}
	return out, pb, nil
}

// Workload runs the five strategies once on a named workload (see
// workload.Named) — the per-strategy table of `experiments -exp run`. The
// runner's Scale divides syn's populations as in the sweeps and its Seed
// replaces syn's. The series has one point, labelled with the workload's
// name; its title carries the instance's size and the calibrated p_b.
func (r *Runner) Workload(space, name string, syn workload.SyntheticConfig, duration int) (*Series, error) {
	syn.Workers, syn.Requests, syn.Seed = r.scaled(syn.Workers), r.scaled(syn.Requests), r.Seed
	in, model, err := workload.Named(space, name, syn, duration, r.Scale)
	if err != nil {
		return nil, err
	}
	results, pb, err := r.runInstance(in, model)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("workload %s (%s): |W|=%d |R|=%d T=%d G=%d, p_b = %.4f", name, space,
		len(in.Workers), len(in.Tasks), in.Periods, in.Spatial().NumCells(), pb)
	return &Series{ID: "run", Title: title, Param: "workload", Points: []Point{{Label: name, Results: results}}}, nil
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
		results, _, err := r.runInstance(in, model)
		if err != nil {
			return nil, fmt.Errorf("exp %s tick %s: %w", id, tick, err)
		}
		s.Points = append(s.Points, Point{Label: tick, Results: results})
	}
	return s, nil
}
