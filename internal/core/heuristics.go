package core

import "math"

// countWorkersByCell counts this period's workers per cell (indexed by cell
// id) by their current location; the supply-demand heuristics compare it
// against the per-cell task counts.
func countWorkersByCell(ctx *PeriodContext) []int {
	out := make([]int, ctx.Space.NumCells())
	for _, w := range ctx.Workers {
		out[ctx.Space.CellOf(w.Loc)]++
	}
	return out
}

// SDR is the supply-demand-ratio baseline of Section 5.1: for a grid with
// more tasks than workers it prices at Coef * p_b * |R^tg| / |W^tg|, and at
// the base price otherwise. The paper empirically sets Coef = 0.5.
type SDR struct {
	P         Params
	BasePrice float64
	Coef      float64
}

// NewSDR builds the SDR heuristic with the paper's coefficient.
func NewSDR(p Params, basePrice float64) (*SDR, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &SDR{P: p, BasePrice: p.Clamp(basePrice), Coef: 0.5}, nil
}

// Name implements Strategy.
func (s *SDR) Name() string { return "SDR" }

// Prices implements Strategy.
func (s *SDR) Prices(ctx *PeriodContext) []float64 {
	workers := countWorkersByCell(ctx)
	out := make([]float64, len(ctx.Tasks))
	for _, ct := range ctx.Cells {
		nr, nw := len(ct.Tasks), workers[ct.Cell]
		price := s.BasePrice
		if nr > nw {
			if nw == 0 {
				price = s.P.PMax // unbounded ratio: cap
			} else {
				price = s.P.Clamp(s.Coef * s.BasePrice * float64(nr) / float64(nw))
			}
		}
		for _, ti := range ct.Tasks {
			out[ti] = price
		}
	}
	return out
}

// Observe implements Strategy; SDR does not learn.
func (s *SDR) Observe(*PeriodContext, []float64, []bool) {}

// PriceStateVersion implements PriceCacheable: SDR carries no learned
// state, so its prices depend only on the window's tasks and workers and a
// cached vector stays valid whenever the market repeats. (Callers mutating
// the public knobs mid-stream forfeit that guarantee.)
func (s *SDR) PriceStateVersion() uint64 { return 0 }

// SDE is the exponential supply-demand-difference baseline of Section 5.1:
// p^tg = p_b * (1 + 2 e^{|W^tg| - |R^tg|}) when tasks outnumber workers,
// and p_b otherwise.
type SDE struct {
	P         Params
	BasePrice float64
}

// NewSDE builds the SDE heuristic.
func NewSDE(p Params, basePrice float64) (*SDE, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &SDE{P: p, BasePrice: p.Clamp(basePrice)}, nil
}

// Name implements Strategy.
func (s *SDE) Name() string { return "SDE" }

// Prices implements Strategy.
func (s *SDE) Prices(ctx *PeriodContext) []float64 {
	workers := countWorkersByCell(ctx)
	out := make([]float64, len(ctx.Tasks))
	for _, ct := range ctx.Cells {
		nr, nw := len(ct.Tasks), workers[ct.Cell]
		price := s.BasePrice
		if nr > nw {
			price = s.P.Clamp(s.BasePrice * (1 + 2*math.Exp(float64(nw-nr))))
		}
		for _, ti := range ct.Tasks {
			out[ti] = price
		}
	}
	return out
}

// Observe implements Strategy; SDE does not learn.
func (s *SDE) Observe(*PeriodContext, []float64, []bool) {}

// PriceStateVersion implements PriceCacheable; like SDR, SDE is stateless.
func (s *SDE) PriceStateVersion() uint64 { return 0 }
