package market

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/match"
)

// indexShape is one adversarial pool/task shape for the differential test.
type indexShape struct {
	name string
	make func(rng *rand.Rand) ([]Task, []Worker)
}

func uniformPoint(rng *rand.Rand, lo, hi float64) geo.Point {
	return geo.Point{X: lo + rng.Float64()*(hi-lo), Y: lo + rng.Float64()*(hi-lo)}
}

func tasksAt(pts ...geo.Point) []Task {
	tasks := make([]Task, len(pts))
	for i, p := range pts {
		tasks[i] = Task{ID: i, Origin: p}
	}
	return tasks
}

func uniformTasks(rng *rand.Rand, n int, lo, hi float64) []Task {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = uniformPoint(rng, lo, hi)
	}
	return tasksAt(pts...)
}

func uniformWorkers(rng *rand.Rand, n int, lo, hi, maxR float64) []Worker {
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = Worker{ID: i, Loc: uniformPoint(rng, lo, hi), Radius: rng.Float64() * maxR}
	}
	return workers
}

// indexShapes lists the shapes in the order one shared index sees them, so
// the sequence itself shrinks and regrows every arena.
func indexShapes() []indexShape {
	nan, inf := math.NaN(), math.Inf(1)
	return []indexShape{
		{"uniform-10k", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 150, 0, 100), uniformWorkers(rng, 10000, 0, 100, 6)
		}},
		{"empty-pool", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 5, 0, 100), nil
		}},
		{"one-worker", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 40, 0, 100), uniformWorkers(rng, 1, 0, 100, 60)
		}},
		{"two-workers", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 40, 0, 100), uniformWorkers(rng, 2, 0, 100, 60)
		}},
		{"no-tasks", func(rng *rand.Rand) ([]Task, []Worker) {
			return nil, uniformWorkers(rng, 300, 0, 100, 10)
		}},
		{"regrown-8k", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 100, 0, 100), uniformWorkers(rng, 8000, 0, 100, 3)
		}},
		{"co-located", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 500, 0, 100, 8)
			for i := range workers {
				workers[i].Loc = geo.Point{X: 40, Y: 60}
			}
			return uniformTasks(rng, 80, 30, 70), workers
		}},
		{"collinear", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 500, 0, 100, 8)
			for i := range workers {
				workers[i].Loc.Y = 50
			}
			return uniformTasks(rng, 80, 0, 100), workers
		}},
		{"outlier-1e6x", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 2000, 0, 100, 6)
			workers[777].Loc = geo.Point{X: 1e8, Y: -1e8}
			tasks := uniformTasks(rng, 80, 0, 100)
			tasks[3].Origin = geo.Point{X: 1e8 + 1, Y: -1e8}
			return tasks, workers
		}},
		{"radii-zero-to-everything", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 2000, 0, 100, 4)
			workers[5].Radius = 0
			workers[6].Radius = 1e-200 // squares to zero
			workers[7].Radius = -9     // the range test squares it
			workers[8].Radius = 1e9
			workers[9].Radius = inf
			tasks := uniformTasks(rng, 60, 0, 100)
			tasks[0].Origin = workers[5].Loc
			tasks[1].Origin = workers[6].Loc
			return tasks, workers
		}},
		{"tasks-outside-the-box", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 1500, 0, 100, 12)
			return tasksAt(
				geo.Point{X: -5, Y: 50}, geo.Point{X: 105, Y: 50},
				geo.Point{X: 50, Y: -5}, geo.Point{X: 50, Y: 105},
				geo.Point{X: -5, Y: -5}, geo.Point{X: 105, Y: 105},
				geo.Point{X: -5, Y: 105}, geo.Point{X: 105, Y: -5},
				geo.Point{X: -1e12, Y: 50}, geo.Point{X: 50, Y: 1e300},
				geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100},
			), workers
		}},
		{"negative-coordinates", func(rng *rand.Rand) ([]Task, []Worker) {
			return uniformTasks(rng, 80, -1000, -900), uniformWorkers(rng, 3000, -1000, -900, 7)
		}},
		{"duplicate-ids", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 400, 0, 100, 15)
			for i := range workers {
				workers[i].ID = i % 7
			}
			return uniformTasks(rng, 50, 0, 100), workers
		}},
		// Non-finite input: none of it may produce an edge (radii stay finite
		// or NaN here; Inf <= Inf is the one case where the bare range test
		// would).
		{"non-finite", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 600, 0, 100, 20)
			workers[0].Loc.X = nan
			workers[1].Loc.Y = nan
			workers[2].Loc.X = inf
			workers[3].Loc.Y = -inf
			workers[4].Loc = geo.Point{X: nan, Y: inf}
			workers[5].Radius = nan
			workers[599].Loc.X = -inf
			tasks := uniformTasks(rng, 60, 0, 100)
			tasks[0].Origin.X = nan
			tasks[1].Origin.Y = inf
			tasks[2].Origin = geo.Point{X: -inf, Y: nan}
			return tasks, workers
		}},
		{"all-non-finite", func(rng *rand.Rand) ([]Task, []Worker) {
			workers := uniformWorkers(rng, 10, 0, 100, 20)
			for i := range workers {
				workers[i].Loc.X = nan
			}
			return uniformTasks(rng, 10, 0, 100), workers
		}},
	}
}

// TestWorkerIndexEqualsPairwise pins the worker index to recomputation: for
// every shape, through both entry points and over one long-lived index, the
// graph must equal the O(n*m) BuildBipartite edge for edge, in order.
func TestWorkerIndexEqualsPairwise(t *testing.T) {
	entry := map[string]func(*WorkerIndex, []Worker){
		"Reindex": (*WorkerIndex).Reindex,
		"Update":  (*WorkerIndex).Update,
	}
	for name, index := range entry {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			var ix WorkerIndex
			g := match.NewGraph(0, 0)
			for round, shape := range indexShapes() {
				tasks, workers := shape.make(rng)
				index(&ix, workers)
				got := ix.BuildGraphInto(tasks, g)
				want := BuildBipartite(tasks, workers)
				if shape.name == "non-finite" || shape.name == "all-non-finite" {
					for ti := range tasks {
						if !finite(tasks[ti].Origin.X) || !finite(tasks[ti].Origin.Y) {
							if n := len(want.Adj(ti)); n != 0 {
								t.Fatalf("%s: pairwise scan gave non-finite task %d %d edges", shape.name, ti, n)
							}
						}
					}
				}
				t.Logf("%s: %d tasks x %d workers, %d edges, %dx%d cells",
					shape.name, len(tasks), len(workers), want.NumEdges(), ix.nx, ix.ny)
				sameGraph(t, round, got, want)
			}
		})
	}
}

// TestWorkerIndexSteadyStateAllocs pins the per-window cost model: once the
// arenas have seen the pool size, a rebuild plus a graph build allocates
// nothing.
func TestWorkerIndexSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tasks := uniformTasks(rng, 100, 0, 100)
	workers := uniformWorkers(rng, 10000, 0, 100, 6)
	var ix WorkerIndex
	g := match.NewGraph(0, 0)
	window := func() {
		// Drift a few workers so consecutive builds differ.
		for k := 0; k < 200; k++ {
			workers[rng.Intn(len(workers))].Loc = uniformPoint(rng, 0, 100)
		}
		ix.Update(workers)
		ix.BuildGraphInto(tasks, g)
	}
	window()
	window()
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state window allocates %v times, want 0", allocs)
	}
}
