package market

import (
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/stats"
)

func TestWorkerActiveAt(t *testing.T) {
	tests := []struct {
		name   string
		w      Worker
		t      int
		active bool
	}{
		{"before arrival", Worker{Period: 5, Duration: 3}, 4, false},
		{"at arrival", Worker{Period: 5, Duration: 3}, 5, true},
		{"mid duration", Worker{Period: 5, Duration: 3}, 7, true},
		{"after lapse", Worker{Period: 5, Duration: 3}, 8, false},
		{"zero duration means one period", Worker{Period: 5}, 5, true},
		{"zero duration next period", Worker{Period: 5}, 6, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.w.ActiveAt(tt.t); got != tt.active {
				t.Errorf("ActiveAt(%d) = %v, want %v", tt.t, got, tt.active)
			}
		})
	}
}

func TestTaskAcceptsBoundary(t *testing.T) {
	task := Task{Valuation: 3}
	if !task.Accepts(3) {
		t.Error("p == v must accept (R' has p_r <= v_r)")
	}
	if task.Accepts(3.0001) {
		t.Error("p > v must reject")
	}
	if task.Revenue(2) != task.Distance*2 {
		t.Error("revenue must be d_r * p")
	}
}

func TestInstanceValidate(t *testing.T) {
	grid := geo.SquareGrid(10, 2)
	good := &Instance{Grid: grid, Periods: 2,
		Tasks:   []Task{{Period: 1, Distance: 1}},
		Workers: []Worker{{Period: 0, Radius: 1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"zero periods", func(in *Instance) { in.Periods = 0 }},
		{"task period out of range", func(in *Instance) { in.Tasks[0].Period = 5 }},
		{"negative distance", func(in *Instance) { in.Tasks[0].Distance = -1 }},
		{"worker period out of range", func(in *Instance) { in.Workers[0].Period = -1 }},
		{"zero radius", func(in *Instance) { in.Workers[0].Radius = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := &Instance{Grid: grid, Periods: 2,
				Tasks:   []Task{{Period: 1, Distance: 1}},
				Workers: []Worker{{Period: 0, Radius: 1}}}
			c.mut(in)
			if err := in.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestBucketing(t *testing.T) {
	grid := geo.SquareGrid(10, 2)
	in := &Instance{Grid: grid, Periods: 3,
		Tasks: []Task{
			{ID: 0, Period: 0}, {ID: 1, Period: 2}, {ID: 2, Period: 0},
		},
		Workers: []Worker{{ID: 0, Period: 1, Radius: 1}},
	}
	byP := in.TasksByPeriod()
	if len(byP[0]) != 2 || len(byP[1]) != 0 || len(byP[2]) != 1 {
		t.Errorf("TasksByPeriod sizes %d/%d/%d", len(byP[0]), len(byP[1]), len(byP[2]))
	}
	byW := in.WorkersByStart()
	if len(byW[1]) != 1 || len(byW[0]) != 0 {
		t.Error("WorkersByStart wrong")
	}
}

func TestBuildBipartitePaperExample(t *testing.T) {
	tasks := []Task{
		{ID: 0, Origin: geo.Point{X: 1, Y: 5}, Distance: 1.3},
		{ID: 1, Origin: geo.Point{X: 1.5, Y: 5.5}, Distance: 0.7},
		{ID: 2, Origin: geo.Point{X: 5, Y: 5}, Distance: 1.0},
	}
	workers := []Worker{
		{ID: 0, Loc: geo.Point{X: 3, Y: 5}, Radius: 2.5},
		{ID: 1, Loc: geo.Point{X: 7, Y: 5}, Radius: 2.5},
		{ID: 2, Loc: geo.Point{X: 5, Y: 3}, Radius: 2.5},
	}
	g := BuildBipartite(tasks, workers)
	if len(g.Adj(0)) != 1 || len(g.Adj(1)) != 1 || len(g.Adj(2)) != 3 {
		t.Errorf("degrees %d/%d/%d, want 1/1/3 (Figure 1b)",
			len(g.Adj(0)), len(g.Adj(1)), len(g.Adj(2)))
	}
}

func TestBuildBipartiteIndexedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grid := geo.SquareGrid(100, 10)
	for trial := 0; trial < 30; trial++ {
		in := &Instance{Grid: grid, Periods: 1}
		nt, nw := rng.Intn(40), rng.Intn(40)
		tasks := make([]Task, nt)
		for i := range tasks {
			tasks[i] = Task{ID: i, Origin: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
		}
		workers := make([]Worker, nw)
		for i := range workers {
			workers[i] = Worker{ID: i,
				Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				Radius: 2 + rng.Float64()*25}
		}
		naive := BuildBipartite(tasks, workers)
		indexed := BuildBipartiteCellIndexScratch(in.Spatial(), tasks, workers, nil)
		if naive.NumEdges() != indexed.NumEdges() {
			t.Fatalf("trial %d: edge counts differ: %d vs %d",
				trial, naive.NumEdges(), indexed.NumEdges())
		}
		for l := 0; l < nt; l++ {
			for _, r := range naive.Adj(l) {
				if !indexed.HasEdge(l, r) {
					t.Fatalf("trial %d: indexed graph missing edge (%d,%d)", trial, l, r)
				}
			}
		}
	}
}

func TestUniformModel(t *testing.T) {
	m := UniformModel{D: stats.PointMass{V: 3}}
	if m.Dist(0) != m.Dist(99) {
		t.Error("uniform model should ignore the cell")
	}
}

func TestWorkerIndexCandidates(t *testing.T) {
	workers := []Worker{
		{ID: 0, Loc: geo.Point{X: 10, Y: 10}, Radius: 5},
		{ID: 1, Loc: geo.Point{X: 20, Y: 10}, Radius: 2},
		{ID: 2, Loc: geo.Point{X: 50, Y: 50}, Radius: 5},
	}
	ix := NewWorkerIndex(workers)
	got := ix.Candidates(geo.Point{X: 12, Y: 10}, nil)
	// Worker 0 (distance 2 <= 5) qualifies; worker 1 (distance 8 > 2) and
	// worker 2 (far away) do not.
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("candidates = %v, want [0]", got)
	}
	buf := got[:0]
	if got2 := ix.Candidates(geo.Point{X: 0, Y: 0}, buf); len(got2) != 0 {
		t.Fatalf("candidates at origin = %v, want none", got2)
	}
}
