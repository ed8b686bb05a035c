package core

import "spatialcrowd/internal/stats"

// CappedUCB is the per-grid independent pricing baseline of Section 5.1,
// after Babaioff et al.'s dynamic pricing with limited supply: every grid is
// treated as an isolated market with |W^tg| units of supply, priced at
//
//	argmax_p min(|R^tg| * p * S^g(p), |W^tg| * p)
//
// with every d_r taken as 1 — Eq. (1) with n^tg pinned to the local worker
// count. Acceptance ratios are learned with the same UCB machinery as MAPS,
// but no supply is shared across grids, which is exactly the weakness the
// paper's evaluation exposes.
type CappedUCB struct {
	P Params //lint:snapfields operator config injected at construction, not learned state

	basePrice float64
	ladder    []float64
	cells     cellTable

	// ver counts price-relevant state changes; see PriceStateVersion.
	ver uint64 //lint:snapfields cache-invalidation counter; RestoreState bumps it instead of restoring it
}

// NewCappedUCB builds the baseline around a base price fallback.
func NewCappedUCB(p Params, basePrice float64) (*CappedUCB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ladder, err := stats.PriceLadder(p.PMin, p.PMax, p.Alpha)
	if err != nil {
		return nil, err
	}
	return &CappedUCB{
		P:         p,
		basePrice: p.Clamp(basePrice),
		ladder:    ladder,
	}, nil
}

// Name implements Strategy.
func (c *CappedUCB) Name() string { return "CappedUCB" }

// CellStats returns (creating on demand) the learning state of a cell.
func (c *CappedUCB) CellStats(cell int) *CellStats { return c.cells.at(cell, c.ladder) }

// Prices implements Strategy.
func (c *CappedUCB) Prices(ctx *PeriodContext) []float64 {
	workers := countWorkersByCell(ctx)
	out := make([]float64, len(ctx.Tasks))
	for _, ct := range ctx.Cells {
		cs := c.CellStats(ct.Cell)
		price := c.basePrice
		if cs.Total() > 0 {
			// D/C with every d_r = 1: |W^tg| / |R^tg|.
			ratio := float64(workers[ct.Cell]) / float64(len(ct.Tasks))
			pos, _ := cs.BestIndex(ratio)
			price = c.ladder[pos]
		}
		for _, ti := range ct.Tasks {
			out[ti] = price
		}
	}
	return out
}

// Observe implements Strategy: per-grid UCB updates, as in MAPS.
func (c *CappedUCB) Observe(ctx *PeriodContext, prices []float64, accepted []bool) {
	if len(ctx.Tasks) > 0 {
		c.ver++
	}
	for i, tv := range ctx.Tasks {
		c.CellStats(tv.Cell).Observe(prices[i], accepted[i])
	}
}

// PriceStateVersion implements PriceCacheable; the version advances on
// every Observe and snapshot restore.
func (c *CappedUCB) PriceStateVersion() uint64 { return c.ver }
