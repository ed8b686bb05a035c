// Package market defines the spatial-crowdsourcing market model of Section 2
// of the paper: spatial tasks with hidden private valuations, crowd workers
// with range constraints, per-grid acceptance-ratio curves, and the per-period
// task–worker bipartite graph construction.
package market

import (
	"fmt"
	"math/rand"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
)

// Task is a spatial task r = <t, ori_r, des_r> (Definition 2) together with
// its travel distance d_r and the requester's private valuation v_r. The
// valuation is exported for the simulator's oracle but pricing strategies
// must never read it; they only observe accept/reject outcomes.
type Task struct {
	ID       int
	Period   int       // issue time period t
	Origin   geo.Point // ori_r
	Dest     geo.Point // des_r
	Distance float64   // d_r, travel distance from origin to destination

	// Valuation is the requester's private maximum acceptable unit price.
	// Hidden information: see Oracle.
	Valuation float64
}

// Worker is a crowd worker w = <t, l_w, a_w> (Definition 4). Duration is the
// number of consecutive periods the worker remains available once active
// (the delta_w knob of the real-data experiments); a worker matched to a task
// is occupied and leaves the market, as in the paper's batch model.
type Worker struct {
	ID       int
	Period   int       // first period the worker is available
	Loc      geo.Point // l_w
	Radius   float64   // a_w, range constraint radius
	Duration int       // periods of availability; <= 0 means one period
}

// Move is one worker relocation: at the end of Period, the worker with ID
// WorkerID stands at To. The simulator emits moves as its supply responds to
// prices (sim.Config.OnMove), the mobility generator fabricates them
// (workload.MobilityTrace), and the streaming engine replays them as
// KindWorkerMove events — one shared trace format across the offline and
// online paths.
type Move struct {
	Period   int
	WorkerID int
	To       geo.Point
}

// ActiveAt reports whether the worker is available in period t, assuming it
// has not been consumed by an assignment.
func (w Worker) ActiveAt(t int) bool {
	d := w.Duration
	if d <= 0 {
		d = 1
	}
	return t >= w.Period && t < w.Period+d
}

// Accepts reports the requester's decision for a unit price: accept iff
// p <= v_r (Section 2.2: the accepting tasks are those with p_r <= v_r).
func (t Task) Accepts(price float64) bool { return price <= t.Valuation }

// Revenue returns the platform revenue if the task is served at the given
// unit price: d_r * p.
func (t Task) Revenue(price float64) float64 { return t.Distance * price }

// Instance is one complete market instance: a spatial partition plus all
// tasks and workers over T periods. Grid is the uniform-grid geometry every
// generator historically produced; Space, when set, overrides it with a
// different spatial backend (e.g. a road network) and Grid is ignored.
type Instance struct {
	Grid    geo.Grid
	Space   spatial.Space // optional; nil means GridSpace over Grid
	Periods int
	Tasks   []Task
	Workers []Worker
}

// Spatial returns the instance's spatial backend: the configured Space, or
// the uniform grid when none is set.
func (in *Instance) Spatial() spatial.Space {
	if in.Space != nil {
		return in.Space
	}
	return in.Grid
}

// Validate checks structural sanity of the instance.
func (in *Instance) Validate() error {
	if in.Periods <= 0 {
		return fmt.Errorf("market: instance needs Periods > 0, got %d", in.Periods)
	}
	for i, task := range in.Tasks {
		if task.Period < 0 || task.Period >= in.Periods {
			return fmt.Errorf("market: task %d period %d out of [0,%d)", i, task.Period, in.Periods)
		}
		if task.Distance < 0 {
			return fmt.Errorf("market: task %d has negative distance %v", i, task.Distance)
		}
	}
	for i, w := range in.Workers {
		if w.Period < 0 || w.Period >= in.Periods {
			return fmt.Errorf("market: worker %d period %d out of [0,%d)", i, w.Period, in.Periods)
		}
		if w.Radius <= 0 {
			return fmt.Errorf("market: worker %d has non-positive radius %v", i, w.Radius)
		}
	}
	return nil
}

// TasksByPeriod returns tasks bucketed by issue period.
func (in *Instance) TasksByPeriod() [][]Task {
	out := make([][]Task, in.Periods)
	for _, t := range in.Tasks {
		out[t.Period] = append(out[t.Period], t)
	}
	return out
}

// WorkersByStart returns workers bucketed by first active period.
func (in *Instance) WorkersByStart() [][]Worker {
	out := make([][]Worker, in.Periods)
	for _, w := range in.Workers {
		out[w.Period] = append(out[w.Period], w)
	}
	return out
}

// ValuationModel draws private valuations for tasks by grid cell; it is the
// hidden demand distribution F^g of Definition 3.
type ValuationModel interface {
	// Dist returns the valuation distribution of grid cell g.
	Dist(cell int) stats.Dist
}

// UniformModel applies a single distribution to every cell.
type UniformModel struct {
	D stats.Dist
}

// Dist implements ValuationModel.
func (u UniformModel) Dist(int) stats.Dist { return u.D }

// PerCellModel stores one distribution per cell, falling back to Default for
// cells without an entry.
type PerCellModel struct {
	Cells   map[int]stats.Dist
	Default stats.Dist
}

// Dist implements ValuationModel.
func (m PerCellModel) Dist(cell int) stats.Dist {
	if d, ok := m.Cells[cell]; ok {
		return d
	}
	return m.Default
}

// ModelOracle answers base pricing's calibration probes from the hidden
// valuation model, standing in for the paper's recent requesters:
// a probe at price p in a cell accepts when a fresh valuation draw from that
// cell's distribution is at least p. It satisfies core.ProbeOracle.
type ModelOracle struct {
	model ValuationModel
	rng   *rand.Rand
}

// NewModelOracle returns a probe oracle over model with its own
// deterministic random stream.
func NewModelOracle(model ValuationModel, seed int64) *ModelOracle {
	return &ModelOracle{model: model, rng: rand.New(rand.NewSource(seed))}
}

// Probe offers price to one fresh requester in cell.
func (o *ModelOracle) Probe(cell int, price float64) bool {
	return price <= o.model.Dist(cell).Sample(o.rng)
}
