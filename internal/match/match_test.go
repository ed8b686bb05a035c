package match

import (
	"math"
	"math/rand"
	"testing"
)

// paperGraph builds the bipartite graph of Figure 1b:
// tasks r1,r2,r3 = left 0,1,2; workers w1,w2,w3 = right 0,1,2.
// r1 and r2 (the grid-9 tasks) reach only w1; r3 (grid 11) reaches all three
// workers. This is the topology Example 5's arithmetic confirms ("at most one
// of r1 and r2 can be served", "r3 is assured to be served").
func paperGraph() *Graph {
	g := NewGraph(3, 3)
	g.AddEdge(0, 0) // r1-w1
	g.AddEdge(1, 0) // r2-w1
	g.AddEdge(2, 0) // r3-w1
	g.AddEdge(2, 1) // r3-w2
	g.AddEdge(2, 2) // r3-w3
	return g
}

func TestMaxCardinalityPaperExample(t *testing.T) {
	// "From Fig. 1b, at most two tasks can be served and at most one of r1
	// and r2 can be served."
	g := paperGraph()
	m := MaxCardinality(g)
	if m.Size() != 2 {
		t.Fatalf("max cardinality = %d, want 2", m.Size())
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	// r2 and r3 both only reach w1, so they cannot both be matched.
	if m.LeftTo[1] >= 0 && m.LeftTo[2] >= 0 {
		t.Error("r2 and r3 cannot both be served")
	}
}

func TestMaxCardinalityEdgeCases(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
		want  int
	}{
		{"empty graph", func() *Graph { return NewGraph(0, 0) }, 0},
		{"no edges", func() *Graph { return NewGraph(3, 3) }, 0},
		{"single edge", func() *Graph {
			g := NewGraph(1, 1)
			g.AddEdge(0, 0)
			return g
		}, 1},
		{"perfect 3x3", func() *Graph {
			g := NewGraph(3, 3)
			for i := 0; i < 3; i++ {
				g.AddEdge(i, i)
				g.AddEdge(i, (i+1)%3)
			}
			return g
		}, 3},
		{"star: many tasks one worker", func() *Graph {
			g := NewGraph(5, 1)
			for i := 0; i < 5; i++ {
				g.AddEdge(i, 0)
			}
			return g
		}, 1},
		{"star: one task many workers", func() *Graph {
			g := NewGraph(1, 5)
			for i := 0; i < 5; i++ {
				g.AddEdge(0, i)
			}
			return g
		}, 1},
		{"needs augmentation", func() *Graph {
			// l0-r0, l1-{r0,r1}: greedy l1->r0 would block l0.
			g := NewGraph(2, 2)
			g.AddEdge(0, 0)
			g.AddEdge(1, 0)
			g.AddEdge(1, 1)
			return g
		}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := tt.build()
			m := MaxCardinality(g)
			if m.Size() != tt.want {
				t.Errorf("size = %d, want %d", m.Size(), tt.want)
			}
			if err := m.Validate(g); err != nil {
				t.Error(err)
			}
		})
	}
}

// bruteMaxCardinality enumerates all subsets of left vertices.
func bruteMaxCardinality(g *Graph) int {
	best := 0
	var rec func(l int, used uint64, n int)
	rec = func(l int, used uint64, n int) {
		if n > best {
			best = n
		}
		if l >= g.NLeft() {
			return
		}
		rec(l+1, used, n) // skip l
		for _, r := range g.Adj(l) {
			if used&(1<<uint(r)) == 0 {
				rec(l+1, used|1<<uint(r), n+1)
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func TestMaxCardinalityVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(7)
		nr := 1 + rng.Intn(7)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(l, r)
				}
			}
		}
		m := MaxCardinality(g)
		if err := m.Validate(g); err != nil {
			t.Fatal(err)
		}
		if want := bruteMaxCardinality(g); m.Size() != want {
			t.Fatalf("trial %d: HK size %d, brute force %d", trial, m.Size(), want)
		}
	}
}

// bruteMaxWeight enumerates all matchings, maximizing total weight where the
// weight of (l, r) is w(l, r).
func bruteMaxWeight(g *Graph, w func(l, r int) float64) float64 {
	best := 0.0
	var rec func(l int, used uint64, sum float64)
	rec = func(l int, used uint64, sum float64) {
		if sum > best {
			best = sum
		}
		if l >= g.NLeft() {
			return
		}
		rec(l+1, used, sum)
		for _, r := range g.Adj(l) {
			if used&(1<<uint(r)) == 0 {
				rec(l+1, used|1<<uint(r), sum+w(l, r))
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func TestMaxWeightByLeftPaperExample(t *testing.T) {
	// Figure 2, all-accept world at prices {3,3,2}: weights are
	// d_r * p_r = {1.3*3, 0.7*3, 1*2} = {3.9, 2.1, 2}. w1 serves the heavier
	// of r1/r2 (r1, 3.9); r3 takes w2 or w3 => 3.9 + 2.0 = 5.9.
	g := paperGraph()
	weights := []float64{3.9, 2.1, 2}
	m, total := MaxWeightByLeft(g, weights)
	if math.Abs(total-5.9) > 1e-9 {
		t.Fatalf("total = %v, want 5.9 (paper Fig. 2 all-accept world)", total)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m.LeftTo[0] != 0 || m.LeftTo[2] < 1 {
		t.Errorf("want r1 on w1 and r3 on w2/w3, got %v", m.LeftTo)
	}
}

func TestMaxWeightByLeftSkipsNonPositive(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	m, total := MaxWeightByLeft(g, []float64{5, 0})
	if total != 5 || m.Size() != 1 {
		t.Errorf("total=%v size=%d; zero-weight task should be skipped", total, m.Size())
	}
}

func TestMaxWeightByLeftVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		nl := 1 + rng.Intn(7)
		nr := 1 + rng.Intn(7)
		g := NewGraph(nl, nr)
		weights := make([]float64, nl)
		for l := range weights {
			weights[l] = rng.Float64() * 10
		}
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(l, r)
				}
			}
		}
		m, total := MaxWeightByLeft(g, weights)
		if err := m.Validate(g); err != nil {
			t.Fatal(err)
		}
		want := bruteMaxWeight(g, func(l, r int) float64 { return weights[l] })
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: greedy %v, brute force %v", trial, total, want)
		}
	}
}

func TestIncrementalPaperWalkthrough(t *testing.T) {
	// Example 5, iterations 17-18: grid 9 admits r1 (matched to w1), then
	// "there is no augmenting path for r2 in grid 9"; grid 11 admits r3.
	g := paperGraph()
	inc := NewIncremental(g)

	if !inc.TryAugment(0) { // admit r1 -> w1 (M' = {r1,w1})
		t.Fatal("r1 should match")
	}
	if inc.Matching().LeftTo[0] != 0 {
		t.Fatalf("r1 should hold w1, got %d", inc.Matching().LeftTo[0])
	}
	// r2 only reaches w1 and r1 has no alternative: no augmenting path.
	if inc.TryAugment(1) {
		t.Fatal("r2 must not match: w1 is pinned by r1")
	}
	// r3 reaches w2/w3 and matches.
	if !inc.TryAugment(2) {
		t.Fatal("r3 should match")
	}
	if inc.Size() != 2 {
		t.Fatalf("size = %d, want 2", inc.Size())
	}
	if err := inc.Matching().Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalMatchesHopcroftKarp(t *testing.T) {
	// Feeding every left vertex to the incremental matcher must reach max
	// cardinality (Kuhn == HK in size).
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(12)
		nr := 1 + rng.Intn(12)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(l, r)
				}
			}
		}
		inc := NewIncremental(g)
		for l := 0; l < nl; l++ {
			inc.TryAugment(l)
		}
		if hk := MaxCardinality(g).Size(); inc.Size() != hk {
			t.Fatalf("trial %d: incremental %d vs HK %d", trial, inc.Size(), hk)
		}
	}
}

func TestIncrementalCanAugmentAnyDoesNotMutate(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g)
	inc.TryAugment(0)
	before := append([]int(nil), inc.Matching().LeftTo...)
	if !inc.CanAugmentAny([]int{1, 2}) {
		t.Fatal("r3 should be augmentable")
	}
	if inc.CanAugmentAny([]int{1}) {
		t.Fatal("r2 alone should not be augmentable while r1 pins w1")
	}
	for i, v := range inc.Matching().LeftTo {
		if before[i] != v {
			t.Fatal("CanAugmentAny mutated the matching")
		}
	}
}

func TestIncrementalTryAugmentAny(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g)
	if got := inc.TryAugmentAny([]int{2, 1}); got != 2 {
		t.Fatalf("TryAugmentAny = %d, want first candidate 2", got)
	}
	if got := inc.TryAugmentAny([]int{2}); got != -1 {
		t.Fatalf("already matched candidate should return -1, got %d", got)
	}
}

func TestIncrementalRelease(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g)
	inc.TryAugment(0) // r1 -> w1
	if inc.TryAugment(1) {
		t.Fatal("r2 should be blocked while r1 holds w1")
	}
	inc.Release(0)
	if inc.Size() != 0 {
		t.Fatal("release should free the pair")
	}
	if !inc.TryAugment(1) {
		t.Fatal("r2 should match after release")
	}
	inc.Release(99) // out of range: no panic
}

func TestInducedLeft(t *testing.T) {
	g := paperGraph()
	sub, origin := g.InducedLeft([]int{0, 2}) // keep r1 and r3
	if sub.NLeft() != 2 || sub.NRight() != 3 {
		t.Fatalf("induced size %dx%d", sub.NLeft(), sub.NRight())
	}
	if origin[0] != 0 || origin[1] != 2 {
		t.Fatalf("origin = %v", origin)
	}
	if len(sub.Adj(0)) != 1 || len(sub.Adj(1)) != 3 {
		t.Fatalf("induced degrees %d,%d", len(sub.Adj(0)), len(sub.Adj(1)))
	}
	m := MaxCardinality(sub)
	if m.Size() != 2 {
		t.Fatalf("induced max matching = %d, want 2", m.Size())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := paperGraph()
	m := NewMatching(3, 3)
	m.LeftTo[1] = 2 // r2-w3 is not an edge
	m.RightTo[2] = 1
	if err := m.Validate(g); err == nil {
		t.Error("want validation error for non-edge pair")
	}
	m2 := NewMatching(3, 3)
	m2.LeftTo[0] = 1 // asymmetric
	if err := m2.Validate(g); err == nil {
		t.Error("want validation error for asymmetric pair")
	}
	m3 := NewMatching(2, 3)
	if err := m3.Validate(g); err == nil {
		t.Error("want validation error for size mismatch")
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range AddEdge should panic")
		}
	}()
	g.AddEdge(2, 0)
}

func TestHasEdge(t *testing.T) {
	g := paperGraph()
	if !g.HasEdge(2, 2) || g.HasEdge(0, 2) || g.HasEdge(-1, 0) {
		t.Error("HasEdge wrong")
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
}

func TestIncrementalRemoveRight(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g)
	for l := 0; l < 3; l++ {
		inc.TryAugment(l)
	}
	if inc.Size() != 2 {
		t.Fatalf("initial size = %d, want 2", inc.Size())
	}

	// w1 (right 0) goes offline: whichever of r1/r2 held it is freed and
	// cannot be repaired (w1 was their only neighbor).
	freed := inc.RemoveRight(0)
	if freed != 0 && freed != 1 {
		t.Fatalf("RemoveRight(0) freed %d, want 0 or 1", freed)
	}
	if !inc.Removed(0) || inc.Size() != 1 {
		t.Fatalf("after removal: removed=%v size=%d", inc.Removed(0), inc.Size())
	}
	if inc.TryAugment(freed) {
		t.Fatal("freed task re-augmented through a removed worker")
	}

	// r3 still holds one of w2/w3; removing it must repair onto the other.
	r3Worker := inc.Matching().LeftTo[2]
	if r3Worker < 1 {
		t.Fatalf("r3 matched to %d, want w2 or w3", r3Worker)
	}
	if got := inc.RemoveRight(r3Worker); got != 2 {
		t.Fatalf("RemoveRight(%d) freed %d, want 2", r3Worker, got)
	}
	if !inc.TryAugment(2) {
		t.Fatal("r3 not repairable despite a spare worker")
	}
	if err := inc.Matching().Validate(g); err != nil {
		t.Fatal(err)
	}

	// Duplicate and out-of-range removals are inert.
	if inc.RemoveRight(r3Worker) != -1 || inc.RemoveRight(99) != -1 || inc.RemoveRight(-1) != -1 {
		t.Fatal("redundant RemoveRight should return -1")
	}

	// Restoring w1 re-admits it for augmentation.
	if !inc.RestoreRight(0) || inc.RestoreRight(0) {
		t.Fatal("RestoreRight should succeed once")
	}
	if !inc.TryAugment(freed) {
		t.Fatal("restored worker not reachable")
	}
}

// TestIncrementalInterleavedAugmentRemove drives random interleavings of
// augment/remove/restore operations and checks two invariants after every
// step: the matching stays valid for the graph, and no removed right vertex
// is ever matched. At the end, re-augmenting every unmatched left vertex
// must reach the maximum cardinality of the graph induced on the surviving
// right vertices (Kuhn over the non-removed workers).
func TestIncrementalInterleavedAugmentRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nl, nr := 2+rng.Intn(12), 2+rng.Intn(12)
		g := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(l, r)
				}
			}
		}
		inc := NewIncremental(g)
		removed := make(map[int]bool)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(4); op {
			case 0, 1:
				inc.TryAugment(rng.Intn(nl))
			case 2:
				r := rng.Intn(nr)
				if freed := inc.RemoveRight(r); freed >= 0 {
					inc.TryAugment(freed) // repair attempt
				}
				if inc.Removed(r) {
					removed[r] = true
				}
			case 3:
				r := rng.Intn(nr)
				if inc.RestoreRight(r) {
					delete(removed, r)
				}
			}
			m := inc.Matching()
			if err := m.Validate(g); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for r := range removed {
				if m.RightTo[r] >= 0 {
					t.Fatalf("trial %d step %d: removed right %d is matched", trial, step, r)
				}
			}
		}
		// Saturate, then compare against max cardinality on the survivors.
		for l := 0; l < nl; l++ {
			inc.TryAugment(l)
		}
		surviving := NewGraph(nl, nr)
		for l := 0; l < nl; l++ {
			for _, r := range g.Adj(l) {
				if !removed[r] {
					surviving.AddEdge(l, r)
				}
			}
		}
		want := MaxCardinality(surviving).Size()
		if got := inc.Size(); got != want {
			t.Fatalf("trial %d: saturated size %d, max cardinality on survivors %d", trial, got, want)
		}
	}
}
