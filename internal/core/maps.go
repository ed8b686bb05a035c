package core

import (
	"fmt"
	"math"

	"spatialcrowd/internal/stats"
)

// MAPS is the matching-based dynamic pricing strategy of Section 4
// (Algorithms 2 and 3). Each period it:
//
//  1. builds the task–worker bipartite graph (supplied via the context),
//  2. greedily distributes the dependent supply: a max-heap over grids
//     repeatedly admits one more worker to the grid with the largest
//     marginal increase Δ^g of the approximate expected revenue
//     L^g(n,p) = min(Σ d_r·p·S(p), Σ_{top n} d_r·p), validating every
//     admission with an augmenting path in the pre-matching M′,
//  3. prices each grid with the UCB index of Section 4.2.2 over the
//     candidate ladder, so demand is learned online from accept/reject
//     feedback with change detection.
//
// Grids without tasks are priced at the base price p_b.
type MAPS struct {
	P Params //lint:snapfields operator config injected at construction, not learned state

	basePrice float64
	ladder    []float64
	cells     cellTable

	// Smoothing in [0, 1) blends each grid's price toward its neighbors'
	// average after the main pricing pass (Section 4.2.3's spatial smoothing
	// note). 0 disables smoothing.
	Smoothing float64

	// LastSupply and LastPrices expose the n^{tg} and the final unit price
	// the most recent Prices call chose for every cell, indexed by cell id
	// (one entry per cell of the space). Cells without tasks in that period
	// read 0. Both are rewritten in place by the next Prices call.
	LastSupply []int     //lint:snapfields per-window diagnostic output, rebuilt by the next Prices call
	LastPrices []float64 //lint:snapfields per-window diagnostic output, rebuilt by the next Prices call

	// Per-period working state, reused across Prices calls (strategies
	// serve one goroutine; the engine gives each shard a private instance),
	// so in steady state the returned price slice is Prices' only
	// allocation.
	pre    preMatcher  //lint:snapfields per-period scratch, reset at the top of every Prices call
	h      deltaHeap   //lint:snapfields per-period scratch, reset at the top of every Prices call
	rounds []cellRound //lint:snapfields per-period scratch, one per ctx.Cells entry, rebuilt by every Prices call
	prefix []float64   //lint:snapfields per-period scratch backing every round's prefix sums
	nbuf   []int       //lint:snapfields neighbor buffer for smoothing; capacity cache only

	// ver counts state changes that can alter future prices (Observe,
	// SetLadder, snapshot restore); see PriceStateVersion.
	ver uint64 //lint:snapfields cache-invalidation counter; RestoreState bumps it instead of restoring it
}

// NewMAPS builds a MAPS strategy around a base price (typically
// BaseP.BasePrice() after calibration, as Algorithm 2 prescribes).
func NewMAPS(p Params, basePrice float64) (*MAPS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ladder, err := stats.PriceLadder(p.PMin, p.PMax, p.Alpha)
	if err != nil {
		return nil, err
	}
	return &MAPS{
		P:         p,
		basePrice: p.Clamp(basePrice),
		ladder:    ladder,
	}, nil
}

// Name implements Strategy.
func (m *MAPS) Name() string { return "MAPS" }

// GridPrices implements GridPricer with the last period's per-grid prices.
func (m *MAPS) GridPrices() []float64 { return m.LastPrices }

// BasePrice returns the p_b used for task-free grids and initialization.
func (m *MAPS) BasePrice() float64 { return m.basePrice }

// CellStats returns (creating on demand) the learning state of a cell.
func (m *MAPS) CellStats(cell int) *CellStats { return m.cells.at(cell, m.ladder) }

// SetLadder replaces the candidate price set, e.g. with an empirically
// tabulated one like Table 1 of the paper. It resets all learned statistics.
func (m *MAPS) SetLadder(ladder []float64) {
	m.ladder = append([]float64(nil), ladder...)
	m.cells = nil
	m.ver++
}

// PriceStateVersion implements PriceCacheable: the version advances on
// every Observe, SetLadder, and snapshot restore, so a cached price vector
// is replayed only for windows between which MAPS learned nothing.
func (m *MAPS) PriceStateVersion() uint64 { return m.ver }

// cellTable is a learner's per-cell statistics indexed by cell id, grown on
// demand; a nil entry is a cell never touched.
type cellTable []*CellStats

// at returns (creating on demand) the statistics of a cell.
func (t *cellTable) at(cell int, ladder []float64) *CellStats {
	if cell >= len(*t) {
		*t = append(*t, make([]*CellStats, cell+1-len(*t))...)
	}
	cs := (*t)[cell]
	if cs == nil {
		cs = NewCellStats(ladder)
		(*t)[cell] = cs
	}
	return cs
}

// heapEntry is the tuple ((g, n_new, p_new), Δ^g) of Algorithm 2.
type heapEntry struct {
	cell  int
	round int // the cell's position in ctx.Cells and MAPS.rounds
	nNew  int
	pNew  float64
	delta float64 // +Inf on the initialization round
}

// deltaHeap is the max-heap H keyed by Δ^g. It is a typed implementation of
// the container/heap sift rules (identical element movement, so pop order —
// including between equal keys — matches what container/heap would do)
// without the interface boxing that allocates one heap.Push per proposal.
type deltaHeap []heapEntry

// less orders by Δ descending with cell ID as the tie-break. The tie-break
// is load-bearing: equal deltas are common (every grid starts at Δ = ∞, and
// retired grids all carry Δ = 0) and the grids compete for a shared worker
// pool through the pre-matching, so which grid wins a contested worker is
// decided here. With one live entry per cell, (Δ, cell) is a total order:
// the pop sequence does not depend on push order.
func (h deltaHeap) less(i, j int) bool {
	if h[i].delta != h[j].delta {
		return h[i].delta > h[j].delta
	}
	return h[i].cell < h[j].cell
}

func (h *deltaHeap) push(e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *deltaHeap) pop() heapEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift the new root down over the first n elements.
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

// cellRound is MAPS's per-period working state for one grid cell.
type cellRound struct {
	cellID    int
	cs        *CellStats // the cell's statistics, cached on first use (statsOf)
	tasks     []int      // task indices, distance-descending (ctx.Cells order)
	sumDist   float64    // C = Σ_r d_r over the cell's tasks
	prefix    []float64  // prefix[i] = Σ of the i+1 largest distances
	n         int        // committed supply n^{tg}
	price     float64    // current tentative price
	lval      float64    // L^g at the committed (n, price)
	finalized bool
}

// topDistSum returns D = Σ of the top-n distances.
func (cr *cellRound) topDistSum(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n >= len(cr.prefix) {
		return cr.prefix[len(cr.prefix)-1]
	}
	return cr.prefix[n-1]
}

// Prices implements Strategy by running Algorithm 2.
func (m *MAPS) Prices(ctx *PeriodContext) []float64 {
	prices := make([]float64, len(ctx.Tasks))
	m.clearLast(ctx.Space.NumCells())
	m.rounds = resize(m.rounds, len(ctx.Cells))
	if len(ctx.Tasks) == 0 {
		return prices
	}

	// Pre-matching M′ over the period's bipartite graph (line 1–2).
	m.pre.reset(ctx)
	pre := &m.pre

	// Lines 3–4: one entry per grid with Δ = ∞ so every grid is evaluated
	// once before any admission.
	h := &m.h
	*h = (*h)[:0]
	m.prefix = resize(m.prefix, len(ctx.Tasks))
	off := 0
	for i, ct := range ctx.Cells {
		prefix := m.prefix[off : off+len(ct.Tasks) : off+len(ct.Tasks)]
		off += len(ct.Tasks)
		run := 0.0
		for k, ti := range ct.Tasks {
			run += ctx.Tasks[ti].Distance
			prefix[k] = run
		}
		m.rounds[i] = cellRound{
			cellID: ct.Cell, tasks: ct.Tasks, sumDist: run, prefix: prefix,
			price: m.basePrice,
		}
		h.push(heapEntry{cell: ct.Cell, round: i, nNew: 0, pNew: m.basePrice, delta: math.Inf(1)})
	}

	// Lines 5–21: the greedy supply-distribution loop.
	for len(*h) > 0 {
		e := h.pop()
		cr := &m.rounds[e.round]
		if cr.finalized {
			continue
		}
		if !math.IsInf(e.delta, 1) && e.delta > 0 {
			// Lines 8–10: admit the proposed worker — find an augmenting
			// path for an unassigned task of this grid.
			if pre.augmentOne(cr) {
				cr.n = e.nNew
				cr.price = e.pNew
				cr.lval = m.lValue(cr, cr.n, cr.price)
			}
			// If the augmentation went stale (another grid took the worker
			// since the proposal), fall through: the re-proposal below will
			// discover infeasibility and retire the grid with Δ = 0.
		}
		if e.delta == 0 {
			// Lines 11–14: final price for this grid, clamped to the cap.
			cr.price = m.P.Clamp(e.pNew)
			cr.finalized = true
			continue
		}
		// Lines 16–21: propose one more worker for this grid.
		if !pre.canAugment(cr) {
			price := cr.price
			if cr.n == 0 {
				// Starved grid: no supply could be validated. Retire it at
				// its one-worker aspirational price, which sits high on the
				// revenue curve (Section 4.2.3's note that MAPS prices
				// under-supplied regions up). Pricing starved grids at the
				// base price instead floods the market with cheap accepted
				// tasks that divert workers from the premium grids in the
				// realized assignment.
				price, _ = m.maximizer(cr, 1)
			}
			h.push(heapEntry{cell: e.cell, round: e.round, nNew: cr.n, pNew: price, delta: 0})
			continue
		}
		nNext := cr.n + 1
		pNext, lNext := m.maximizer(cr, nNext)
		delta := lNext - cr.lval
		if delta <= 1e-12 {
			h.push(heapEntry{cell: e.cell, round: e.round, nNew: cr.n, pNew: pNext, delta: 0})
			continue
		}
		h.push(heapEntry{cell: e.cell, round: e.round, nNew: nNext, pNew: pNext, delta: delta})
	}

	// Emit per-task prices; task-free grids never appear in ctx.Cells and
	// implicitly keep the base price.
	for i := range m.rounds {
		cr := &m.rounds[i]
		cr.price = m.P.Clamp(cr.price)
		m.LastSupply[cr.cellID] = cr.n
		m.LastPrices[cr.cellID] = cr.price
	}
	if m.Smoothing > 0 {
		// Every cell reads its neighbors' unsmoothed prices from LastPrices,
		// so the smoothed values wait in the rounds until all are computed.
		w := smoothingWeight(m.Smoothing)
		for i := range m.rounds {
			cr := &m.rounds[i]
			cr.price, m.nbuf = smoothCell(ctx.Space, m.LastPrices, cr.cellID, w, m.nbuf)
		}
		for i := range m.rounds {
			m.LastPrices[m.rounds[i].cellID] = m.rounds[i].price
		}
	}
	for i := range m.rounds {
		cr := &m.rounds[i]
		for _, ti := range cr.tasks {
			prices[ti] = cr.price
		}
	}
	return prices
}

// clearLast zeroes the entries the previous Prices call wrote into
// LastSupply and LastPrices, or reallocates both when the space's cell
// count changed.
func (m *MAPS) clearLast(numCells int) {
	if len(m.LastPrices) != numCells || len(m.LastSupply) != numCells {
		m.LastSupply = make([]int, numCells)
		m.LastPrices = make([]float64, numCells)
		return
	}
	for i := range m.rounds {
		c := m.rounds[i].cellID
		m.LastSupply[c], m.LastPrices[c] = 0, 0
	}
}

// maximizer is Algorithm 3: scan the ladder from pmax down and return the
// price with the largest UCB index, along with the resulting estimate of
// L^g(n, p) (the index scaled back by C).
func (m *MAPS) maximizer(cr *cellRound, n int) (price, lval float64) {
	cs := m.statsOf(cr)
	if cr.sumDist <= 0 || cs.Total() == 0 {
		// No demand mass or no observations yet: stay at the base price, the
		// initial input Algorithm 2 receives from base pricing.
		return m.basePrice, 0
	}
	ratio := cr.topDistSum(n) / cr.sumDist // D/C
	pos, idx := cs.BestIndex(ratio)
	if math.IsInf(idx, -1) || idx < 0 {
		return m.basePrice, 0
	}
	return cs.Ladder()[pos], idx * cr.sumDist
}

// lValue evaluates the committed L^g(n, p) with the current statistics.
func (m *MAPS) lValue(cr *cellRound, n int, p float64) float64 {
	cs := m.statsOf(cr)
	demand := cr.sumDist * p * cs.MeanAt(p)
	supply := cr.topDistSum(n) * p
	return math.Min(demand, supply)
}

// statsOf returns the round's cell statistics, caching them on the round.
func (m *MAPS) statsOf(cr *cellRound) *CellStats {
	if cr.cs == nil {
		cr.cs = m.CellStats(cr.cellID)
	}
	return cr.cs
}

// Observe implements Strategy: feed every requester decision into the cell's
// UCB statistics and change detector.
func (m *MAPS) Observe(ctx *PeriodContext, prices []float64, accepted []bool) {
	if len(prices) != len(ctx.Tasks) || len(accepted) != len(ctx.Tasks) {
		panic(fmt.Sprintf("core: Observe with %d prices / %d outcomes for %d tasks",
			len(prices), len(accepted), len(ctx.Tasks)))
	}
	if len(ctx.Tasks) > 0 {
		m.ver++
	}
	for i, tv := range ctx.Tasks {
		m.CellStats(tv.Cell).Observe(prices[i], accepted[i])
	}
}
