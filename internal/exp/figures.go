package exp

import (
	"fmt"

	"spatialcrowd/internal/workload"
)

// VaryWorkers is E1 (Fig. 6 a/e/i): |W| in {1250, 2500, 5000, 7500, 10000}.
func (r *Runner) VaryWorkers() (*Series, error) {
	vals := []int{1250, 2500, 5000, 7500, 10000}
	return r.sweepSynthetic("E1", "Fig 6(a,e,i): varying |W|", "|W|",
		intLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Workers = r.scaled(vals[i])
		})
}

// VaryRequests is E2 (Fig. 6 b/f/j): |R| in {5000 .. 40000}.
func (r *Runner) VaryRequests() (*Series, error) {
	vals := []int{5000, 10000, 20000, 30000, 40000}
	return r.sweepSynthetic("E2", "Fig 6(b,f,j): varying |R|", "|R|",
		intLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Requests = r.scaled(vals[i])
		})
}

// VaryTemporalMean is E3 (Fig. 6 c/g/k): temporal mu in {0.1 .. 0.9}.
func (r *Runner) VaryTemporalMean() (*Series, error) {
	vals := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	return r.sweepSynthetic("E3", "Fig 6(c,g,k): varying temporal mu", "mu",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.TemporalMu = vals[i]
		})
}

// VarySpatialMean is E4 (Fig. 6 d/h/l): spatial mean in {0.1 .. 0.9}.
func (r *Runner) VarySpatialMean() (*Series, error) {
	vals := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	return r.sweepSynthetic("E4", "Fig 6(d,h,l): varying spatial mean", "mean",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.SpatialMean = vals[i]
		})
}

// VaryDemandMean is E5 (Fig. 7 a/e/i): demand mu in {1.0 .. 3.0}.
func (r *Runner) VaryDemandMean() (*Series, error) {
	vals := []float64{1.0, 1.5, 2.0, 2.5, 3.0}
	return r.sweepSynthetic("E5", "Fig 7(a,e,i): varying demand mu", "mu",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.DemandMu = vals[i]
		})
}

// VaryDemandSigma is E6 (Fig. 7 b/f/j): demand sigma in {0.5 .. 2.5}.
func (r *Runner) VaryDemandSigma() (*Series, error) {
	vals := []float64{0.5, 1.0, 1.5, 2.0, 2.5}
	return r.sweepSynthetic("E6", "Fig 7(b,f,j): varying demand sigma", "sigma",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.DemandSigma = vals[i]
		})
}

// VaryPeriods is E7 (Fig. 7 c/g/k): T in {200 .. 1000}.
func (r *Runner) VaryPeriods() (*Series, error) {
	vals := []int{200, 400, 600, 800, 1000}
	return r.sweepSynthetic("E7", "Fig 7(c,g,k): varying T", "T",
		intLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Periods = vals[i]
		})
}

// VaryGrids is E8 (Fig. 7 d/h/l): G in {25, 100, 225, 400, 625}.
func (r *Runner) VaryGrids() (*Series, error) {
	sides := []int{5, 10, 15, 20, 25}
	labels := make([]string, len(sides))
	for i, s := range sides {
		labels[i] = fmt.Sprintf("%d", s*s)
	}
	return r.sweepSynthetic("E8", "Fig 7(d,h,l): varying G", "G",
		labels, func(i int, cfg *workload.SyntheticConfig) {
			cfg.GridSide = sides[i]
		})
}

// VaryRadius is E9 (Fig. 8 a/e/i): a_w in {5 .. 25}.
func (r *Runner) VaryRadius() (*Series, error) {
	vals := []float64{5, 10, 15, 20, 25}
	return r.sweepSynthetic("E9", "Fig 8(a,e,i): varying radius a_w", "a_w",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Radius = vals[i]
		})
}

// Scalability is E10 (Fig. 8 b/f/j): |W| = |R| in {100k .. 500k}.
func (r *Runner) Scalability() (*Series, error) {
	vals := []int{100000, 200000, 300000, 400000, 500000}
	return r.sweepSynthetic("E10", "Fig 8(b,f,j): scalability |W|=|R|", "|W|(|R|)",
		intLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Workers = r.scaled(vals[i])
			cfg.Requests = r.scaled(vals[i])
		})
}

// VaryExpRate is E13 (Fig. 10): exponential demand rate alpha.
func (r *Runner) VaryExpRate() (*Series, error) {
	vals := []float64{0.5, 0.75, 1.0, 1.25, 1.5}
	return r.sweepSynthetic("E13", "Fig 10: varying exponential alpha", "alpha",
		floatLabels(vals), func(i int, cfg *workload.SyntheticConfig) {
			cfg.Demand = workload.DemandExponential
			cfg.ExpRate = vals[i]
		})
}

// beijingSweep implements E11/E12 (Fig. 8 c/g/k and d/h/l): the Beijing-like
// datasets swept over worker duration delta_w.
func (r *Runner) beijingSweep(id, title string, variant workload.BeijingVariant) (*Series, error) {
	durations := []int{5, 10, 15, 20, 25}
	s := &Series{ID: id, Title: title, Param: "delta_w"}
	for _, d := range durations {
		cfg := workload.BeijingConfig{
			Variant:        variant,
			WorkerDuration: d,
			Scale:          r.Scale,
			Seed:           r.Seed,
		}
		in, model, err := workload.BeijingLike(cfg)
		if err != nil {
			return nil, err
		}
		results, err := r.runInstance(in, model)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{Label: fmt.Sprintf("%d", d), Results: results})
	}
	return s, nil
}

// BeijingRush is E11: dataset #1, 5pm–7pm.
func (r *Runner) BeijingRush() (*Series, error) {
	return r.beijingSweep("E11", "Fig 8(c,g,k): Beijing-like #1 (5pm-7pm)", workload.BeijingRush)
}

// BeijingNight is E12: dataset #2, 0am–2am.
func (r *Runner) BeijingNight() (*Series, error) {
	return r.beijingSweep("E12", "Fig 8(d,h,l): Beijing-like #2 (0am-2am)", workload.BeijingNight)
}

// All runs every figure experiment in the order of EXPERIMENTS.md's
// experiment index.
func (r *Runner) All() ([]*Series, error) {
	drivers := []func() (*Series, error){
		r.VaryWorkers, r.VaryRequests, r.VaryTemporalMean, r.VarySpatialMean,
		r.VaryDemandMean, r.VaryDemandSigma, r.VaryPeriods, r.VaryGrids,
		r.VaryRadius, r.Scalability, r.BeijingRush, r.BeijingNight,
		r.VaryExpRate,
	}
	out := make([]*Series, 0, len(drivers))
	for _, d := range drivers {
		s, err := d()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func intLabels(vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%d", v)
	}
	return out
}

func floatLabels(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%g", v)
	}
	return out
}
