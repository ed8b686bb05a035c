package market

import (
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/spatial"
)

// randomBatch fabricates one pricing batch's tasks and workers.
func randomBatch(rng *rand.Rand, nt, nw int) ([]Task, []Worker) {
	tasks := make([]Task, nt)
	for i := range tasks {
		o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		d := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		tasks[i] = Task{ID: i, Origin: o, Dest: d, Distance: o.Dist(d)}
	}
	workers := make([]Worker, nw)
	for i := range workers {
		workers[i] = Worker{ID: i,
			Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Radius: 2 + rng.Float64()*15}
	}
	return tasks, workers
}

// sameGraph fails the test unless a and b have identical dimensions and
// identical adjacency, in order (edge order steers matching tie breaks).
func sameGraph(t *testing.T, round int, got, want *match.Graph) {
	t.Helper()
	if got.NLeft() != want.NLeft() || got.NRight() != want.NRight() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("round %d: graph %dx%d/%d, want %dx%d/%d", round,
			got.NLeft(), got.NRight(), got.NumEdges(), want.NLeft(), want.NRight(), want.NumEdges())
	}
	for l := 0; l < want.NLeft(); l++ {
		ga, wa := got.Adj(l), want.Adj(l)
		if len(ga) != len(wa) {
			t.Fatalf("round %d left %d: adj %v, want %v", round, l, ga, wa)
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("round %d left %d: adj %v, want %v (order must match)", round, l, ga, wa)
			}
		}
	}
}

// cellOrderReference builds the cell-index graph the slow way, in the order
// the builder promises: for each task, the cells CellsInRangeAppend lists
// for the batch's largest radius, and within each cell its workers in
// ascending batch index.
func cellOrderReference(space spatial.Space, tasks []Task, workers []Worker) *match.Graph {
	g := match.NewGraph(len(tasks), len(workers))
	maxR := 0.0
	for _, w := range workers {
		maxR = max(maxR, w.Radius)
	}
	for ti, t := range tasks {
		for _, cell := range space.CellsInRange(t.Origin, maxR) {
			for wi, w := range workers {
				if space.CellOf(w.Loc) == cell && t.Origin.SqDist(w.Loc) <= w.Radius*w.Radius {
					g.AddEdge(ti, wi)
				}
			}
		}
	}
	return g
}

// TestCellIndexScratchMatchesFresh drives the reusable cell-index builder
// through many batches of varying shape and pins byte-identical adjacency
// against the allocating builder and against the reference enumeration
// order — the property deterministic replay needs.
func TestCellIndexScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	grid := geo.SquareGrid(100, 8)
	sc := &CellIndexScratch{}
	for round := 0; round < 40; round++ {
		tasks, workers := randomBatch(rng, rng.Intn(60), rng.Intn(120))
		got := BuildBipartiteCellIndexScratch(grid, tasks, workers, sc)
		want := BuildBipartiteCellIndexScratch(grid, tasks, workers, nil)
		sameGraph(t, round, got, want)
		sameGraph(t, round, got, cellOrderReference(grid, tasks, workers))
	}
}
