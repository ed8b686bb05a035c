package match

import (
	"math/rand"
	"slices"
	"testing"
)

// refIncremental is Incremental as it was before failed searches were
// remembered: every search bumps the visited stamp and walks the graph from
// scratch. Its search and bookkeeping code is kept verbatim so that
// TestIncrementalEqualsReference can hold the pruned matcher to it.
type refIncremental struct {
	g          *Graph
	m          *Matching
	visited    []int
	removed    []int
	stamp      int
	removedGen int
}

func (in *refIncremental) Reset(g *Graph) {
	in.g = g
	if in.m == nil {
		in.m = NewMatching(g.NLeft(), g.NRight())
	} else {
		in.m.Reset(g.NLeft(), g.NRight())
	}
	in.visited = growStamps(in.visited, g.NRight())
	in.removed = growStamps(in.removed, g.NRight())
	in.removedGen++
}

func (in *refIncremental) Matched(l int) bool { return in.m.LeftTo[l] >= 0 }

func (in *refIncremental) TryAugment(l int) bool {
	if l < 0 || l >= in.g.NLeft() || in.Matched(l) {
		return false
	}
	in.stamp++
	return in.dfs(l)
}

func (in *refIncremental) TryAugmentAny(candidates []int) int {
	for _, l := range candidates {
		if in.TryAugment(l) {
			return l
		}
	}
	return -1
}

func (in *refIncremental) CanAugmentAny(candidates []int) bool {
	for _, l := range candidates {
		if l < 0 || l >= in.g.NLeft() || in.Matched(l) {
			continue
		}
		in.stamp++
		if in.probe(l) {
			return true
		}
	}
	return false
}

func (in *refIncremental) dfs(l int) bool {
	for _, r := range in.g.Adj(l) {
		if in.removed[r] == in.removedGen || in.visited[r] == in.stamp {
			continue
		}
		in.visited[r] = in.stamp
		if in.m.RightTo[r] < 0 || in.dfs(in.m.RightTo[r]) {
			in.m.LeftTo[l] = r
			in.m.RightTo[r] = l
			return true
		}
	}
	return false
}

func (in *refIncremental) probe(l int) bool {
	for _, r := range in.g.Adj(l) {
		if in.removed[r] == in.removedGen || in.visited[r] == in.stamp {
			continue
		}
		in.visited[r] = in.stamp
		if in.m.RightTo[r] < 0 || in.probe(in.m.RightTo[r]) {
			return true
		}
	}
	return false
}

func (in *refIncremental) Release(l int) {
	if l < 0 || l >= in.g.NLeft() {
		return
	}
	if r := in.m.LeftTo[l]; r >= 0 {
		in.m.LeftTo[l] = -1
		in.m.RightTo[r] = -1
	}
}

func (in *refIncremental) RemoveRight(r int) int {
	if r < 0 || r >= in.g.NRight() || in.removed[r] == in.removedGen {
		return -1
	}
	in.removed[r] = in.removedGen
	l := in.m.RightTo[r]
	if l < 0 {
		return -1
	}
	in.m.RightTo[r] = -1
	in.m.LeftTo[l] = -1
	return l
}

func (in *refIncremental) RestoreRight(r int) bool {
	if r < 0 || r >= in.g.NRight() || in.removed[r] != in.removedGen {
		return false
	}
	in.removed[r] = 0
	return true
}

func (in *refIncremental) Removed(r int) bool {
	return r >= 0 && r < in.g.NRight() && in.removed[r] == in.removedGen
}

func (in *refIncremental) RestorePair(l, r int) bool {
	if l < 0 || l >= in.g.NLeft() || r < 0 || r >= in.g.NRight() {
		return false
	}
	if in.m.LeftTo[l] >= 0 || in.m.RightTo[r] >= 0 || in.removed[r] == in.removedGen {
		return false
	}
	in.m.LeftTo[l] = r
	in.m.RightTo[r] = l
	return true
}

// diffGraph draws one graph from the families the differential test covers:
// seeded random, star (one hub on either side), chain, complete, one empty
// side, and two disconnected random blocks.
func diffGraph(rng *rand.Rand) *Graph {
	nl, nr := 1+rng.Intn(12), 1+rng.Intn(12)
	switch rng.Intn(7) {
	case 0, 1:
		return randomGraph(rng, nl, nr, 0.1+0.5*rng.Float64())
	case 2:
		g := NewGraph(nl, nr)
		if rng.Intn(2) == 0 {
			for l := 0; l < nl; l++ {
				g.AddEdge(l, 0)
			}
		} else {
			for r := 0; r < nr; r++ {
				g.AddEdge(0, r)
			}
		}
		return g
	case 3:
		g := NewGraph(nl, nl+1)
		for l := 0; l < nl; l++ {
			g.AddEdge(l, l+1)
			g.AddEdge(l, l)
		}
		return g
	case 4:
		return randomGraph(rng, nl, nr, 1)
	case 5:
		if rng.Intn(2) == 0 {
			return NewGraph(0, nr)
		}
		return NewGraph(nl, 0)
	default:
		g := NewGraph(2*nl, 2*nr)
		for l := 0; l < 2*nl; l++ {
			side := l % 2
			for r := side; r < 2*nr; r += 2 {
				if rng.Float64() < 0.4 {
					g.AddEdge(l, r)
				}
			}
		}
		return g
	}
}

// TestIncrementalEqualsReference holds the pruned matcher to the one that
// re-walks every search: on random operation sequences over every graph
// family, each call returns the same value and leaves the same LeftTo and
// RightTo. Skipping a region that an earlier search proved closed must
// therefore change neither the path a search finds nor whether it finds one.
//
// The sequences are dense enough to catch a missing forget. Both mutations
// were run when the test was written:
//   - without forget in Release: "trial 7 step 32: TryAugmentAny returned -1,
//     reference 0" (a released worker stayed dead);
//   - without forget in RestoreRight: "trial 22 step 28: CanAugmentAny
//     returned false, reference true" (a re-admitted worker stayed dead).
//
// Dropping it from RestorePair passes: a pair can only be installed on a
// free right vertex, which no closed region contains.
//
// Each trial also runs the sequence over a lazy copy of the graph whose
// source releases one entry or a random-sized chunk per extension, so the
// searches must find the same paths whether a list is read all at once or
// grown under them. A Reset that keeps the graph keeps the lazy copy and
// its memo, as the window executor does when it reuses a graph.
func TestIncrementalEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 2000; trial++ {
		g := diffGraph(rng)
		got := NewIncremental(g)
		want := &refIncremental{}
		want.Reset(g)
		chunks := rand.New(rand.NewSource(int64(trial)))
		lg := lazyCopy(g, chunks)
		lazy := NewIncremental(lg)
		anyLeft := func() int { return rng.Intn(g.NLeft()+2) - 1 }
		anyRight := func() int { return rng.Intn(g.NRight()+2) - 1 }
		candidates := func() []int {
			c := make([]int, rng.Intn(5))
			for i := range c {
				c[i] = anyLeft()
			}
			return c
		}
		for step := 0; step < 80; step++ {
			var op string
			var a, b, c any
			switch rng.Intn(12) {
			case 0, 1:
				l := anyLeft()
				op, a, b, c = "TryAugment", got.TryAugment(l), want.TryAugment(l), lazy.TryAugment(l)
			case 2, 3:
				ls := candidates()
				op, a, b, c = "TryAugmentAny", got.TryAugmentAny(ls), want.TryAugmentAny(ls), lazy.TryAugmentAny(ls)
			case 4, 5:
				ls := candidates()
				op, a, b, c = "CanAugmentAny", got.CanAugmentAny(ls), want.CanAugmentAny(ls), lazy.CanAugmentAny(ls)
			case 6:
				r := anyRight()
				op, a, b, c = "RemoveRight", got.RemoveRight(r), want.RemoveRight(r), lazy.RemoveRight(r)
			case 7:
				r := anyRight()
				op, a, b, c = "RestoreRight", got.RestoreRight(r), want.RestoreRight(r), lazy.RestoreRight(r)
			case 8, 9:
				l := anyLeft()
				got.Release(l)
				want.Release(l)
				lazy.Release(l)
				op = "Release"
			case 10:
				l, r := anyLeft(), anyRight()
				if l >= 0 && l < g.NLeft() && len(g.Adj(l)) > 0 && rng.Intn(4) > 0 {
					r = g.Adj(l)[rng.Intn(len(g.Adj(l)))]
				}
				op, a, b, c = "RestorePair", got.RestorePair(l, r), want.RestorePair(l, r), lazy.RestorePair(l, r)
			case 11:
				if rng.Intn(3) > 0 {
					g = diffGraph(rng)
					lg = lazyCopy(g, chunks)
				}
				got.Reset(g)
				want.Reset(g)
				lazy.Reset(lg)
				op = "Reset"
			}
			if a != b {
				t.Fatalf("trial %d step %d: %s returned %v, reference %v", trial, step, op, a, b)
			}
			if c != b {
				t.Fatalf("trial %d step %d: %s on the lazy graph returned %v, reference %v", trial, step, op, c, b)
			}
			gm, wm, lm := got.Matching(), want.m, lazy.Matching()
			if !slices.Equal(gm.LeftTo, wm.LeftTo) || !slices.Equal(gm.RightTo, wm.RightTo) {
				t.Fatalf("trial %d step %d: after %s LeftTo %v RightTo %v, reference %v %v",
					trial, step, op, gm.LeftTo, gm.RightTo, wm.LeftTo, wm.RightTo)
			}
			if !slices.Equal(lm.LeftTo, wm.LeftTo) || !slices.Equal(lm.RightTo, wm.RightTo) {
				t.Fatalf("trial %d step %d: after %s the lazy graph's LeftTo %v RightTo %v, reference %v %v",
					trial, step, op, lm.LeftTo, lm.RightTo, wm.LeftTo, wm.RightTo)
			}
			for r := -1; r <= g.NRight(); r++ {
				if got.Removed(r) != want.Removed(r) || lazy.Removed(r) != want.Removed(r) {
					t.Fatalf("trial %d step %d: after %s Removed(%d) = %v, lazy %v, reference %v",
						trial, step, op, r, got.Removed(r), lazy.Removed(r), want.Removed(r))
				}
			}
		}
		if lg.NumEdges() > g.NumEdges() {
			t.Fatalf("trial %d: lazy graph materialised %d entries of %d", trial, lg.NumEdges(), g.NumEdges())
		}
		for l := 0; l < g.NLeft(); l++ {
			if !slices.Equal(lg.Adj(l), g.Adj(l)) {
				t.Fatalf("trial %d: lazy list %d = %v, want %v", trial, l, lg.Adj(l), g.Adj(l))
			}
		}
		if lg.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: fully read lazy graph has %d entries, want %d", trial, lg.NumEdges(), g.NumEdges())
		}
	}
}

// chunkSource feeds a lazy copy of an eager graph: each extension releases
// the next entry of the eager list, or a chunk of random size.
type chunkSource struct {
	full *Graph
	rng  *rand.Rand
}

func (s *chunkSource) Extend(l int, adj []int) ([]int, bool) {
	all := s.full.Adj(l)
	n := len(adj) + 1
	if s.rng.Intn(2) == 0 {
		n += s.rng.Intn(len(all) + 1)
	}
	n = min(n, len(all))
	return append(adj, all[len(adj):n]...), n == len(all)
}

// lazyCopy returns a lazy graph with g's lists, fed by a chunkSource.
func lazyCopy(g *Graph, rng *rand.Rand) *Graph {
	lg := &Graph{}
	lg.ResetLazy(g.NLeft(), g.NRight(), &chunkSource{full: g, rng: rng})
	return lg
}
