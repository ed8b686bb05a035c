// Package core implements the paper's pricing strategies: the base pricing
// algorithm with Myerson-reserve estimation (Algorithm 1), the MAPS
// matching-based dynamic pricing strategy (Algorithms 2–3), and the three
// comparison baselines of Section 5 (SDR, SDE, CappedUCB).
//
// Strategies see only public market information — task origins, destinations,
// distances and worker positions — plus the accept/reject feedback of past
// offers. Private valuations never cross this API.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/spatial"
)

// TaskView is the strategy-visible projection of a task: everything except
// the requester's private valuation.
type TaskView struct {
	ID       int
	Origin   geo.Point
	Dest     geo.Point
	Distance float64
	Cell     int
}

// PeriodContext carries one time period's market state to a strategy.
type PeriodContext struct {
	Period  int
	Space   spatial.Space   // the spatial backend partitioning the market
	Tasks   []TaskView      // this period's issued tasks
	Workers []market.Worker // this period's available workers
	Graph   *match.Graph    // bipartite graph: Tasks x Workers (range constraint)
	Cells   []CellTasks     // the cells holding tasks, ascending by cell id
}

// CellTasks is one cell's local market in a period: the indices into
// PeriodContext.Tasks of the tasks originating in the cell, by distance
// descending with ties in ascending index order — the order the supply
// curve of Eq. (1) consumes them. The Tasks slices of one context share a
// single backing array.
type CellTasks struct {
	Cell  int
	Tasks []int
}

// Strategy prices one period's tasks and learns from the outcome.
type Strategy interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Prices returns one unit price per task in ctx.Tasks. Implementations
	// must give tasks of the same grid cell the same price (Definition 1).
	Prices(ctx *PeriodContext) []float64
	// Observe reports the requesters' decisions for the prices returned by
	// the immediately preceding Prices call on the same context.
	Observe(ctx *PeriodContext, prices []float64, accepted []bool)
}

// GridPricer is implemented by strategies that expose their most recent
// per-grid prices. The simulator's worker-repositioning extension uses it:
// the paper notes that higher prices in under-supplied regions "will
// motivate more drivers to move to these regions" (Section 4.2.3, practical
// note (i)).
type GridPricer interface {
	// GridPrices returns the latest unit price of every cell, indexed by
	// cell id; 0 marks a cell that was not priced (prices are at least
	// Params.PMin > 0). The slice may be reused by the next pricing call.
	GridPrices() []float64
}

// ProbeOracle answers base pricing's calibration probes: offer `price` to
// one fresh requester whose task originates in `cell` and report acceptance.
// In the simulator this draws from the hidden valuation model, standing in
// for "requesters who recently have issued tasks" (Algorithm 1, line 6).
type ProbeOracle interface {
	Probe(cell int, price float64) bool
}

// Params bundles the pricing knobs shared by every strategy.
type Params struct {
	PMin  float64 // lower bound of candidate prices
	PMax  float64 // upper bound of candidate prices
	Alpha float64 // ladder multiplier: successive candidates differ by (1+Alpha)
	Eps   float64 // base pricing sampling accuracy (Theorem 2)
	Delta float64 // base pricing failure probability (Theorem 2)
}

// DefaultParams mirrors the paper's experimental configuration: valuations
// live in [1, 5], alpha = 0.5 (Example 4), and the standard (0.2, 0.01)
// accuracy pair.
func DefaultParams() Params {
	return Params{PMin: 1, PMax: 5, Alpha: 0.5, Eps: 0.2, Delta: 0.01}
}

// Validate reports the first invalid field.
func (p Params) Validate() error {
	if p.PMin <= 0 || p.PMax < p.PMin {
		return fmt.Errorf("core: need 0 < PMin <= PMax, got [%v,%v]", p.PMin, p.PMax)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("core: need Alpha > 0, got %v", p.Alpha)
	}
	if p.Eps <= 0 {
		return fmt.Errorf("core: need Eps > 0, got %v", p.Eps)
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		return fmt.Errorf("core: need Delta in (0,1), got %v", p.Delta)
	}
	return nil
}

// Clamp restricts a price to [PMin, PMax], the bounded-price cap the paper
// recommends as a practical note in Section 4.2.3.
func (p Params) Clamp(price float64) float64 {
	if price < p.PMin {
		return p.PMin
	}
	if price > p.PMax {
		return p.PMax
	}
	return price
}

// BuildContext assembles a PeriodContext from raw market data: it projects
// tasks to TaskViews around the given range-constraint bipartite graph and
// groups tasks per cell of the spatial backend with distances sorted
// descending. A geo.Grid passes directly as the space.
func BuildContext(space spatial.Space, period int, tasks []market.Task, workers []market.Worker, graph *match.Graph) *PeriodContext {
	return BuildContextScratch(space, period, tasks, workers, graph, nil)
}

// ContextScratch is reusable working state for BuildContextScratch: the
// context, its task-view array, and the per-cell grouping survive across
// pricing windows, so a caller building one context per window allocates
// nothing in steady state. One instance serves one goroutine; the returned
// context is valid until the scratch's next use. The zero value is ready.
type ContextScratch struct {
	ctx   PeriodContext
	views []TaskView
	cells []CellTasks
	idx   []int // the task indices every cells[i].Tasks slices
	next  []int // per cell id: tasks counted, then the fill cursor; all zero between builds
}

// BuildContextScratch is BuildContext with caller-owned scratch state. A nil
// scratch allocates fresh state (exactly BuildContext).
//
// The grouping is a stable counting sort of the task indices by cell: count
// per cell, lay the touched cells out in ascending order, scatter the
// indices in task order, then sort each cell's run by distance (stably, so
// ties stay in index order).
func BuildContextScratch(space spatial.Space, period int, tasks []market.Task, workers []market.Worker, graph *match.Graph, sc *ContextScratch) *PeriodContext {
	if sc == nil {
		sc = &ContextScratch{}
	}
	views := resize(sc.views, len(tasks))
	idx := resize(sc.idx, len(tasks))
	if len(sc.next) != space.NumCells() {
		sc.next = make([]int, space.NumCells())
	}
	next, cells := sc.next, sc.cells[:0]
	for i, t := range tasks {
		cell := space.CellOf(t.Origin)
		views[i] = TaskView{
			ID: t.ID, Origin: t.Origin, Dest: t.Dest,
			Distance: t.Distance, Cell: cell,
		}
		if next[cell] == 0 {
			cells = append(cells, CellTasks{Cell: cell})
		}
		next[cell]++
	}
	slices.SortFunc(cells, func(a, b CellTasks) int { return cmp.Compare(a.Cell, b.Cell) })
	start := 0
	for i := range cells {
		c := &cells[i]
		n := next[c.Cell]
		c.Tasks = idx[start : start+n : start+n]
		next[c.Cell] = start
		start += n
	}
	for i := range views {
		c := views[i].Cell
		idx[next[c]] = i
		next[c]++
	}
	for _, c := range cells {
		sortByDistanceDesc(views, c.Tasks)
		next[c.Cell] = 0
	}
	sc.views, sc.idx, sc.cells = views, idx, cells
	sc.ctx = PeriodContext{
		Period: period, Space: space, Tasks: views, Workers: workers,
		Graph: graph, Cells: cells,
	}
	return &sc.ctx
}

// resize returns p with length n, reusing its capacity; contents are
// unspecified.
func resize[T any](p []T, n int) []T {
	return slices.Grow(p[:0], n)[:n]
}

// sortByDistanceDesc sorts idx (task indices) by views' distance descending;
// insertion sort keeps it allocation-free for the typically short per-cell
// lists.
func sortByDistanceDesc(views []TaskView, idx []int) {
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && views[idx[j-1]].Distance < views[idx[j]].Distance {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
}
