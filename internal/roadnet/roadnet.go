// Package roadnet provides a road-network distance substrate. The paper
// defines d_r as the travel distance from a task's origin to its destination
// "(e.g., Euclidean or road-network distance)"; this package supplies the
// road-network option: a directed weighted graph with Dijkstra and A*
// shortest paths, nearest-node snapping for off-network points, and a
// synthetic Manhattan-style grid-city generator.
package roadnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"spatialcrowd/internal/geo"
)

// NodeID identifies a network node.
type NodeID int

type edge struct {
	to NodeID
	w  float64
}

// Network is a directed weighted road graph embedded in the plane.
type Network struct {
	coords []geo.Point
	adj    [][]edge
	edges  int
}

// New returns an empty network.
func New() *Network { return &Network{} }

// AddNode inserts a node at p and returns its id.
func (nw *Network) AddNode(p geo.Point) NodeID {
	nw.coords = append(nw.coords, p)
	nw.adj = append(nw.adj, nil)
	return NodeID(len(nw.coords) - 1)
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return len(nw.coords) }

// NumEdges returns the directed edge count.
func (nw *Network) NumEdges() int { return nw.edges }

// Coord returns a node's location.
func (nw *Network) Coord(id NodeID) geo.Point { return nw.coords[id] }

// AddEdge inserts the directed edge a -> b with weight w. It panics on
// invalid endpoints or negative weight (shortest paths require w >= 0).
func (nw *Network) AddEdge(a, b NodeID, w float64) {
	if int(a) >= len(nw.coords) || int(b) >= len(nw.coords) || a < 0 || b < 0 {
		panic(fmt.Sprintf("roadnet: edge (%d,%d) out of range", a, b))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("roadnet: negative edge weight %v", w))
	}
	nw.adj[a] = append(nw.adj[a], edge{to: b, w: w})
	nw.edges++
}

// AddRoad inserts a bidirectional road between a and b weighted by the
// Euclidean distance between their coordinates.
func (nw *Network) AddRoad(a, b NodeID) {
	w := nw.coords[a].Dist(nw.coords[b])
	nw.AddEdge(a, b, w)
	nw.AddEdge(b, a, w)
}

// Unreachable is returned by shortest-path queries when no route exists.
var Unreachable = math.Inf(1)

// ShortestPath runs Dijkstra from a to b and returns the distance and the
// node path (inclusive). When b is unreachable it returns Unreachable and a
// nil path.
func (nw *Network) ShortestPath(a, b NodeID) (float64, []NodeID) {
	return nw.search(a, b, func(NodeID) float64 { return 0 })
}

// AStar runs A* with the (admissible) straight-line-distance heuristic,
// which never overestimates when edge weights are at least the Euclidean
// length of the road. It returns the same answers as ShortestPath, faster on
// long queries.
func (nw *Network) AStar(a, b NodeID) (float64, []NodeID) {
	target := nw.coords[b]
	return nw.search(a, b, func(n NodeID) float64 { return nw.coords[n].Dist(target) })
}

// search is the shared Dijkstra/A* implementation; h is the heuristic.
func (nw *Network) search(a, b NodeID, h func(NodeID) float64) (float64, []NodeID) {
	n := len(nw.coords)
	if int(a) >= n || int(b) >= n || a < 0 || b < 0 {
		return Unreachable, nil
	}
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Unreachable
		prev[i] = -1
	}
	dist[a] = 0
	pq := &nodeHeap{{id: a, f: h(a)}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeEntry)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == b {
			break
		}
		for _, e := range nw.adj[cur.id] {
			if done[e.to] {
				continue
			}
			if d := dist[cur.id] + e.w; d < dist[e.to] {
				dist[e.to] = d
				prev[e.to] = cur.id
				heap.Push(pq, nodeEntry{id: e.to, f: d + h(e.to)})
			}
		}
	}
	if math.IsInf(dist[b], 1) {
		return Unreachable, nil
	}
	var path []NodeID
	for at := b; at != -1; at = prev[at] {
		path = append(path, at)
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[b], path
}

type nodeEntry struct {
	id NodeID
	f  float64
}

type nodeHeap []nodeEntry

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeEntry)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// VisitEdges calls fn for every directed edge out of id, in insertion order.
// External shortest-path code (e.g. the spatial.RoadSpace bounded searches)
// uses it to walk the adjacency without the package exposing its edge
// representation.
func (nw *Network) VisitEdges(id NodeID, fn func(to NodeID, w float64)) {
	if id < 0 || int(id) >= len(nw.adj) {
		return
	}
	for _, e := range nw.adj[id] {
		fn(e.to, e.w)
	}
}

// BoundedShortestDistInfo runs Dijkstra from a toward b but abandons the
// search as soon as the frontier exceeds bound: every later pop would only
// be farther, so range checks ("is b within r of a?") never pay the full
// O(V log V) search on a dense network. It returns Unreachable both when no
// route exists and when the shortest route is longer than bound, and tells
// the two apart: disconnected is true when the search exhausted a's
// component without reaching b — no route exists at ANY distance — and
// false when the search was merely cut off at bound (the route, if any, is
// longer than bound). Callers caching negative range checks need the
// distinction: disconnection is permanent and cacheable as an exact
// Unreachable, a bound cutoff only establishes a lower bound.
func (nw *Network) BoundedShortestDistInfo(a, b NodeID, bound float64) (d float64, disconnected bool) {
	n := len(nw.coords)
	if int(a) >= n || int(b) >= n || a < 0 || b < 0 || bound < 0 {
		return Unreachable, false
	}
	if a == b {
		return 0, false
	}
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[a] = 0
	pq := &nodeHeap{{id: a, f: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeEntry)
		if cur.f > bound {
			return Unreachable, false
		}
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == b {
			return dist[b], false
		}
		for _, e := range nw.adj[cur.id] {
			if done[e.to] {
				continue
			}
			if d := dist[cur.id] + e.w; d < dist[e.to] {
				dist[e.to] = d
				heap.Push(pq, nodeEntry{id: e.to, f: d})
			}
		}
	}
	return Unreachable, true
}

// Nearest returns the network node closest to p (linear scan; networks here
// are small enough that an index is not warranted).
func (nw *Network) Nearest(p geo.Point) NodeID {
	best, bestD := NodeID(-1), math.Inf(1)
	for i, c := range nw.coords {
		if d := c.SqDist(p); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best
}

// Distance returns the road distance between two arbitrary points: walk to
// the nearest node, ride the network, walk from the nearest node. When no
// route exists it falls back to the Euclidean distance (a disconnected map
// should degrade, not break pricing).
func (nw *Network) Distance(a, b geo.Point) float64 {
	if nw.NumNodes() == 0 {
		return a.Dist(b)
	}
	na, nb := nw.Nearest(a), nw.Nearest(b)
	d, _ := nw.AStar(na, nb)
	if math.IsInf(d, 1) {
		return a.Dist(b)
	}
	return a.Dist(nw.coords[na]) + d + nw.coords[nb].Dist(b)
}

// GridCityConfig parameterizes the synthetic city generator.
type GridCityConfig struct {
	Region geo.Rect
	Cols   int
	Rows   int
	// Jitter displaces intersections by up to this fraction of the block
	// size (0 = a perfect grid).
	Jitter float64
	// DropProb removes each street segment independently with this
	// probability, producing dead ends and detours (kept below the
	// percolation threshold to stay mostly connected).
	DropProb float64
	Seed     int64
}

// GridCity builds a Manhattan-style road network: a Cols x Rows lattice of
// intersections connected by orthogonal streets, with optional jitter and
// random missing segments.
func GridCity(cfg GridCityConfig) (*Network, error) {
	if cfg.Cols < 2 || cfg.Rows < 2 {
		return nil, fmt.Errorf("roadnet: grid city needs at least 2x2 intersections, got %dx%d",
			cfg.Cols, cfg.Rows)
	}
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("roadnet: empty region %v", cfg.Region)
	}
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		return nil, fmt.Errorf("roadnet: DropProb must be in [0,1), got %v", cfg.DropProb)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nw := New()
	bw := cfg.Region.Width() / float64(cfg.Cols-1)
	bh := cfg.Region.Height() / float64(cfg.Rows-1)
	id := func(c, r int) NodeID { return NodeID(r*cfg.Cols + c) }
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			p := geo.Point{
				X: cfg.Region.Min.X + float64(c)*bw,
				Y: cfg.Region.Min.Y + float64(r)*bh,
			}
			if cfg.Jitter > 0 {
				p.X += (rng.Float64() - 0.5) * cfg.Jitter * bw
				p.Y += (rng.Float64() - 0.5) * cfg.Jitter * bh
				p = cfg.Region.Clamp(p)
			}
			nw.AddNode(p)
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if c+1 < cfg.Cols && rng.Float64() >= cfg.DropProb {
				nw.AddRoad(id(c, r), id(c+1, r))
			}
			if r+1 < cfg.Rows && rng.Float64() >= cfg.DropProb {
				nw.AddRoad(id(c, r), id(c, r+1))
			}
		}
	}
	return nw, nil
}
