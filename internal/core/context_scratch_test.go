package core

import (
	"math/rand"
	"sort"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
)

// naiveCells is the reference grouping written the obvious way: bucket task
// indices per cell in task order, list the cells ascending, and stably sort
// each bucket by distance descending.
func naiveCells(space spatial.Space, tasks []market.Task) []CellTasks {
	byCell := map[int][]int{}
	for i, t := range tasks {
		c := space.CellOf(t.Origin)
		byCell[c] = append(byCell[c], i)
	}
	var out []CellTasks
	for c, idx := range byCell {
		sort.SliceStable(idx, func(a, b int) bool { return tasks[idx[a]].Distance > tasks[idx[b]].Distance })
		out = append(out, CellTasks{Cell: c, Tasks: idx})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cell < out[b].Cell })
	return out
}

// TestBuildContextScratchMatchesFresh drives the reusable context builder
// through many windows of varying shape and checks each context against the
// naive reference grouping: the same views, ascending cells, stable
// distance-descending task lists, and no stale cells left over from earlier
// windows. Distances are drawn from a few values so ties are common.
func TestBuildContextScratchMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	grid := geo.SquareGrid(100, 6)
	sc := &ContextScratch{}
	for round := 0; round < 60; round++ {
		nt := rng.Intn(50)
		tasks := make([]market.Task, nt)
		for i := range tasks {
			o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			d := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			tasks[i] = market.Task{ID: round*1000 + i, Origin: o, Dest: d, Distance: float64(rng.Intn(4))}
		}
		workers := make([]market.Worker, rng.Intn(30))
		for i := range workers {
			workers[i] = market.Worker{ID: i, Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, Radius: 10}
		}
		graph := market.BuildBipartite(tasks, workers)
		got := BuildContextScratch(grid, round, tasks, workers, graph, sc)
		if got.Period != round || len(got.Tasks) != nt {
			t.Fatalf("round %d: context shape diverges", round)
		}
		for i, tk := range tasks {
			want := TaskView{ID: tk.ID, Origin: tk.Origin, Dest: tk.Dest, Distance: tk.Distance, Cell: grid.CellOf(tk.Origin)}
			if got.Tasks[i] != want {
				t.Fatalf("round %d task %d: view %+v, want %+v", round, i, got.Tasks[i], want)
			}
		}
		want := naiveCells(grid, tasks)
		if len(got.Cells) != len(want) {
			t.Fatalf("round %d: %d cells (stale leak?), want %d: %v vs %v",
				round, len(got.Cells), len(want), got.Cells, want)
		}
		for i, w := range want {
			g := got.Cells[i]
			if g.Cell != w.Cell || len(g.Tasks) != len(w.Tasks) {
				t.Fatalf("round %d group %d: %v, want %v", round, i, g, w)
			}
			for k := range w.Tasks {
				if g.Tasks[k] != w.Tasks[k] {
					t.Fatalf("round %d cell %d: task order %v, want %v", round, w.Cell, g.Tasks, w.Tasks)
				}
			}
		}
	}
}
