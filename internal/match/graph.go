// Package match implements the bipartite-graph machinery of the paper:
// the task–worker graph B^t of Section 2.2, maximum-cardinality matching
// (Hopcroft–Karp), exact maximum-weight bipartite matching (the revenue of
// Definition 5), and the incremental single-augmentation matcher MAPS uses
// to validate worker additions (Algorithm 2, line 10).
//
// Left vertices are tasks and right vertices are workers throughout, but the
// package is agnostic to that interpretation.
package match

import (
	"fmt"
	"slices"
)

// Graph is a bipartite graph with nLeft left vertices and nRight right
// vertices, stored as left adjacency lists. The zero value is an empty graph
// with no vertices; use NewGraph for sized construction.
//
// A graph is eager (every list is built by AddEdge) or, after ResetLazy,
// lazy: each list is a memoised prefix that a Source extends on demand.
// Adj and everything built on it see the complete list either way; only the
// augmenting-path searches of Incremental read a lazy list one extension at
// a time, so a search that stops early never pays for the rest.
type Graph struct {
	nLeft, nRight int
	adj           [][]int // adj[l] = right neighbors of left vertex l
	edges         int     // entries materialised in adj
	src           Source  // nil for an eager graph
	open          []bool  // lazy graphs: open[l] while l's list may grow
}

// Source enumerates the adjacency lists of a lazy graph.
type Source interface {
	// Extend appends to adj, which holds the part of left vertex l's list
	// materialised so far, the list's next entries: at least one unless
	// none remain. It reports whether the list is now complete. The
	// entries and their order must not depend on how the list was split
	// into extensions.
	Extend(l int, adj []int) ([]int, bool)
}

// NewGraph returns an empty bipartite graph with the given side sizes.
// It panics on negative sizes (a programming error, not runtime input).
func NewGraph(nLeft, nRight int) *Graph {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("match: negative graph size %dx%d", nLeft, nRight))
	}
	return &Graph{nLeft: nLeft, nRight: nRight, adj: make([][]int, nLeft)}
}

// Reset re-dimensions g to an empty nLeft x nRight graph, reusing the
// adjacency backing arrays of previous batches. Hot paths that build one
// graph per pricing window (the streaming engine) call it instead of
// NewGraph so steady-state construction allocates nothing.
func (g *Graph) Reset(nLeft, nRight int) {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("match: negative graph size %dx%d", nLeft, nRight))
	}
	if cap(g.adj) >= nLeft {
		g.adj = g.adj[:nLeft]
	} else {
		adj := make([][]int, nLeft)
		copy(adj, g.adj)
		g.adj = adj
	}
	for l := range g.adj {
		g.adj[l] = g.adj[l][:0]
	}
	g.nLeft, g.nRight = nLeft, nRight
	g.edges = 0
	g.src = nil
}

// ResetLazy re-dimensions g like Reset, then makes it lazy: every list is
// empty and open, and src fills it in as it is read. The graph reads src
// until the next Reset or ResetLazy, so src must keep answering for this
// graph until then.
func (g *Graph) ResetLazy(nLeft, nRight int, src Source) {
	g.Reset(nLeft, nRight)
	g.src = src
	g.open = slices.Grow(g.open[:0], nLeft)[:nLeft]
	for l := range g.open {
		g.open[l] = true
	}
}

// more extends left vertex l's list once, if it is still open, and returns
// the entries the extension added; nil when the list is complete.
// Incremental's searches call it when they have read every entry
// materialised so far, so on an eager graph it costs one branch per
// exhausted list.
func (g *Graph) more(l int) []int {
	if g.src == nil || !g.open[l] {
		return nil
	}
	return g.extend(l)
}

// extend asks the source for the next entries of open list l and returns
// them.
func (g *Graph) extend(l int) []int {
	n := len(g.adj[l])
	adj, done := g.src.Extend(l, g.adj[l])
	g.adj[l] = adj
	g.edges += len(adj) - n
	g.open[l] = !done
	return adj[n:]
}

// NLeft returns the number of left vertices.
func (g *Graph) NLeft() int { return g.nLeft }

// NRight returns the number of right vertices.
func (g *Graph) NRight() int { return g.nRight }

// NumEdges returns the number of adjacency entries materialised so far:
// every edge of an eager graph, and of a lazy one the entries its readers
// have asked for.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge inserts the edge (l, r). Duplicate edges are allowed but useless;
// callers are expected to add each pair once. It panics on out-of-range
// endpoints and on a lazy graph, whose edges only its source adds.
func (g *Graph) AddEdge(l, r int) {
	if l < 0 || l >= g.nLeft || r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("match: edge (%d,%d) out of range %dx%d", l, r, g.nLeft, g.nRight))
	}
	if g.src != nil {
		panic("match: AddEdge on a lazy graph")
	}
	g.adj[l] = append(g.adj[l], r)
	g.edges++
}

// Adj returns the right neighbors of left vertex l, materialising the rest
// of a lazy list first. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) Adj(l int) []int {
	for g.src != nil && g.open[l] {
		g.extend(l)
	}
	return g.adj[l]
}

// HasEdge reports whether the edge (l, r) exists. O(deg(l)).
func (g *Graph) HasEdge(l, r int) bool {
	if l < 0 || l >= g.nLeft {
		return false
	}
	for _, x := range g.Adj(l) {
		if x == r {
			return true
		}
	}
	return false
}

// InducedLeft returns the subgraph on the given subset of left vertices
// (with the same right side), along with the mapping from new left index to
// original left index. The revenue computation uses it to restrict B^t to
// the tasks that accepted their price.
func (g *Graph) InducedLeft(keep []int) (*Graph, []int) {
	sub := NewGraph(len(keep), g.nRight)
	origin := make([]int, len(keep))
	for i, l := range keep {
		origin[i] = l
		for _, r := range g.Adj(l) {
			sub.AddEdge(i, r)
		}
	}
	return sub, origin
}

// Matching is a pairing between left and right vertices. LeftTo[l] is the
// right partner of l or -1; RightTo[r] is the left partner of r or -1.
type Matching struct {
	LeftTo  []int
	RightTo []int
}

// NewMatching returns an empty matching for a graph with the given sizes.
func NewMatching(nLeft, nRight int) *Matching {
	m := &Matching{}
	m.Reset(nLeft, nRight)
	return m
}

// Reset re-dimensions the matching to empty, reusing the pairing arrays.
func (m *Matching) Reset(nLeft, nRight int) {
	m.LeftTo = resetPairs(m.LeftTo, nLeft)
	m.RightTo = resetPairs(m.RightTo, nRight)
}

// resetPairs returns a length-n all -1 slice, reusing s's backing array when
// it is large enough.
func resetPairs(s []int, n int) []int {
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]int, n)
	}
	for i := range s {
		s[i] = -1
	}
	return s
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int {
	n := 0
	for _, r := range m.LeftTo {
		if r >= 0 {
			n++
		}
	}
	return n
}

// Validate checks the matching invariants against g: every matched pair is
// an edge of g and the two directions agree. It returns a descriptive error
// on the first violation found.
func (m *Matching) Validate(g *Graph) error {
	if len(m.LeftTo) != g.NLeft() || len(m.RightTo) != g.NRight() {
		return fmt.Errorf("match: matching sized %dx%d vs graph %dx%d",
			len(m.LeftTo), len(m.RightTo), g.NLeft(), g.NRight())
	}
	for l, r := range m.LeftTo {
		if r < 0 {
			continue
		}
		if r >= g.NRight() {
			return fmt.Errorf("match: left %d matched to out-of-range right %d", l, r)
		}
		if m.RightTo[r] != l {
			return fmt.Errorf("match: asymmetric pair l=%d r=%d (RightTo=%d)", l, r, m.RightTo[r])
		}
		if !g.HasEdge(l, r) {
			return fmt.Errorf("match: pair (%d,%d) is not an edge", l, r)
		}
	}
	for r, l := range m.RightTo {
		if l >= 0 && (l >= g.NLeft() || m.LeftTo[l] != r) {
			return fmt.Errorf("match: asymmetric pair r=%d l=%d", r, l)
		}
	}
	return nil
}
