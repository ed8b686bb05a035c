package spatial

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/kdtree"
	"spatialcrowd/internal/roadnet"
)

// distCacheSize bounds the RoadSpace shortest-path cache. Markets revisit a
// small working set of node pairs (hot cells, repeated range checks), so a
// few thousand entries keep the hit rate high while the cache stays small.
const distCacheSize = 1 << 12

// distCacheStripes is the lock-striping factor of the shortest-path cache
// (power of two). Sixteen stripes keep cross-shard contention negligible at
// realistic shard counts while each stripe still holds a few hundred
// entries.
const distCacheStripes = 1 << 4

// RoadSpace is the road-network backend: positions snap to the nearest
// network node (k-d tree), travel distance is the shortest path over the
// network, and cells are clusters of nodes built by deterministic
// farthest-point sampling. Euclidean radii over-estimate reachability on real
// street geometry — a river or a missing ramp can make a "close" task
// unreachable — so d_r and the cell structure both follow the network.
//
// All query methods are safe for concurrent use; the shortest-path cache is
// the only mutable state, and it is striped (per-stripe locks) so concurrent
// shards contend only on colliding key stripes, not on one global mutex.
type RoadSpace struct {
	net  *roadnet.Network
	snap *kdtree.Tree // over node coordinates; payload = node id

	cellOfNode []int            // node id -> cell
	seeds      []roadnet.NodeID // cell -> seed node (its coordinate is the center)
	adj        [][]int          // cell -> sorted neighbor cells
	rangePool  sync.Pool        // *rangeScratch for CellsInRangeAppend

	// Striped LRU cache over node-pair network distances: lookup promotes,
	// insert evicts the stripe's least recently used entry when full.
	cache *distCache
}

// cacheEntry is one cached node-pair distance fact. Exact entries (lb ==
// false) carry the true network distance, including the +Inf unreachable
// sentinel for disconnected pairs — without it every repeat query over a
// fragmented map re-runs a full-component A* (the "A*-storm"). Lower-bound
// entries (lb == true) record "the true distance exceeds d", the most a
// bounded range search that was cut off at its radius can prove; they
// answer any future WithinDist whose radius the bound already covers, and
// are upgraded in place when a deeper search learns more.
type cacheEntry struct {
	key uint64
	d   float64
	lb  bool
}

// NewRoadSpace clusters the network's nodes into the given number of cells
// and returns the backend. Cells are seeded by farthest-point sampling from
// node 0 (deterministic: equal networks and cell counts give equal spaces)
// and every node joins its nearest seed; cell adjacency is derived from
// network edges that cross cluster boundaries.
func NewRoadSpace(net *roadnet.Network, cells int) (*RoadSpace, error) {
	n := net.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("spatial: road space needs a non-empty network")
	}
	if cells <= 0 {
		return nil, fmt.Errorf("spatial: road space needs a positive cell count, got %d", cells)
	}
	if cells > n {
		cells = n
	}

	coords := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		coords[i] = net.Coord(roadnet.NodeID(i))
	}

	// Farthest-point sampling: start at node 0, then repeatedly take the
	// node farthest from every chosen seed (ties to the lowest id).
	seeds := make([]roadnet.NodeID, 0, cells)
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	cur := roadnet.NodeID(0)
	for len(seeds) < cells {
		seeds = append(seeds, cur)
		far, farD := roadnet.NodeID(0), -1.0
		for i := 0; i < n; i++ {
			if d := coords[i].SqDist(coords[cur]); d < minD[i] {
				minD[i] = d
			}
			if minD[i] > farD {
				far, farD = roadnet.NodeID(i), minD[i]
			}
		}
		cur = far
	}

	cellOfNode := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestD := 0, math.Inf(1)
		for c, s := range seeds {
			if d := coords[i].SqDist(coords[s]); d < bestD {
				best, bestD = c, d
			}
		}
		cellOfNode[i] = best
	}

	adj := make([][]int, len(seeds))
	seen := make(map[uint64]bool)
	for a := 0; a < n; a++ {
		ca := cellOfNode[a]
		net.VisitEdges(roadnet.NodeID(a), func(to roadnet.NodeID, _ float64) {
			cb := cellOfNode[to]
			if ca == cb {
				return
			}
			key := uint64(ca)<<32 | uint64(cb)
			if !seen[key] {
				seen[key] = true
				adj[ca] = append(adj[ca], cb)
			}
		})
	}
	for _, nb := range adj {
		sort.Ints(nb)
	}

	return &RoadSpace{
		net:        net,
		snap:       kdtree.Build(coords),
		cellOfNode: cellOfNode,
		seeds:      seeds,
		adj:        adj,
		cache:      newDistCache(distCacheSize, distCacheStripes),
	}, nil
}

// Name identifies the backend in flags and banners.
func (*RoadSpace) Name() string { return "road" }

// Network returns the underlying road graph.
func (rs *RoadSpace) Network() *roadnet.Network { return rs.net }

// NumCells implements Space.
func (rs *RoadSpace) NumCells() int { return len(rs.seeds) }

// SnapNode returns the network node nearest to p.
func (rs *RoadSpace) SnapNode(p geo.Point) roadnet.NodeID {
	id, _ := rs.snap.Nearest(p)
	return roadnet.NodeID(id)
}

// Snap returns the coordinate of the network node nearest to p — the
// position generators use to emit on-network populations.
func (rs *RoadSpace) Snap(p geo.Point) geo.Point {
	return rs.net.Coord(rs.SnapNode(p))
}

// CellOf implements Space: the cluster of the nearest node.
func (rs *RoadSpace) CellOf(p geo.Point) int {
	return rs.cellOfNode[rs.SnapNode(p)]
}

// CellCenter implements Space with the seed node's coordinate; the seed is
// its own nearest node, so CellOf(CellCenter(i)) == i.
func (rs *RoadSpace) CellCenter(cell int) geo.Point {
	return rs.net.Coord(rs.seeds[cell])
}

// Neighbors implements Space with the precomputed cluster adjacency. The
// returned slice is internal; callers must not mutate it.
func (rs *RoadSpace) Neighbors(cell int) []int { return rs.adj[cell] }

// NeighborsAppend implements Space.
func (rs *RoadSpace) NeighborsAppend(cell int, out []int) []int {
	return append(out, rs.adj[cell]...)
}

// CellsInRange implements Space: the cells of every node within Euclidean
// distance r of center. For node-snapped populations (everything the road
// workload generators emit) this is exactly the set of cells that can hold a
// position within r; off-network positions may snap outside it, so mixed
// populations should use the worker index (market.WorkerIndex)
// instead of the cell index.
func (rs *RoadSpace) CellsInRange(center geo.Point, r float64) []int {
	return rs.CellsInRangeAppend(center, r, nil)
}

// rangeScratch is the pooled working state of CellsInRangeAppend: the node
// hit list and a cell de-duplication mark array, recycled across queries so
// concurrent range enumeration allocates nothing in steady state.
type rangeScratch struct {
	nodes []int
	mark  []bool
}

// CellsInRangeAppend implements Space, appending into out in the same
// first-seen node order as CellsInRange.
func (rs *RoadSpace) CellsInRangeAppend(center geo.Point, r float64, out []int) []int {
	sc, _ := rs.rangePool.Get().(*rangeScratch)
	if sc == nil {
		sc = &rangeScratch{}
	}
	sc.nodes = rs.snap.InRadiusAppend(center, r, sc.nodes[:0])
	if len(sc.nodes) == 0 {
		rs.rangePool.Put(sc)
		return out
	}
	if len(sc.mark) < len(rs.seeds) {
		sc.mark = make([]bool, len(rs.seeds))
	}
	from := len(out)
	for _, nd := range sc.nodes {
		if c := rs.cellOfNode[nd]; !sc.mark[c] {
			sc.mark[c] = true
			out = append(out, c)
		}
	}
	// Clear only the marks this query set; the array is pool-shared.
	for _, c := range out[from:] {
		sc.mark[c] = false
	}
	rs.rangePool.Put(sc)
	return out
}

// Dist implements Space: walk to the nearest node, ride the network's
// shortest path, walk from the nearest node. Node-to-node distances go
// through an LRU cache so repeated queries over the market's working set
// (range checks, batch pricing over hot cells) skip the search entirely;
// misses run A* with straight-line pruning. Disconnected pairs fall back to
// the Euclidean distance, mirroring roadnet.Distance: a fragmented map
// should degrade pricing inputs, not break them.
func (rs *RoadSpace) Dist(a, b geo.Point) float64 {
	na, nb := rs.SnapNode(a), rs.SnapNode(b)
	walk := a.Dist(rs.net.Coord(na)) + b.Dist(rs.net.Coord(nb))
	if na == nb {
		return walk
	}
	d := rs.nodeDist(na, nb)
	if math.IsInf(d, 1) {
		return a.Dist(b)
	}
	return walk + d
}

// WithinDist reports whether the road distance from a to b is at most r. On
// a cache hit it is a map lookup; on a miss it runs a Dijkstra bounded at
// the remaining radius, which abandons the search as soon as the frontier
// passes r, staying off the full O(V log V) path. Negative results are
// cached too: a disconnected pair becomes an exact unreachable sentinel, a
// bound cutoff becomes a "distance exceeds r - walk" lower bound that
// answers every repeat query with the same (or smaller) radius without
// searching again.
//
// Note the market's worker range constraint itself stays the Euclidean disk
// of Definition 4 — the paper's "Euclidean or road-network" choice applies
// to the travel distance d_r, which Dist serves. WithinDist is for dispatch
// tooling that wants road-aware feasibility on top (e.g. filtering
// candidates a river separates from a task despite Euclidean closeness).
func (rs *RoadSpace) WithinDist(a, b geo.Point, r float64) bool {
	na, nb := rs.SnapNode(a), rs.SnapNode(b)
	walk := a.Dist(rs.net.Coord(na)) + b.Dist(rs.net.Coord(nb))
	if walk > r {
		return false
	}
	if na == nb {
		return true
	}
	key := uint64(na)<<32 | uint64(uint32(nb))
	if ent, ok := rs.cache.lookup(key); ok {
		if !ent.lb {
			return walk+ent.d <= r
		}
		if walk+ent.d >= r { // true distance > ent.d >= r - walk: out of range
			return false
		}
		// The cached bound is weaker than this query's radius: the search
		// still runs, so this lookup avoided nothing — count it as a miss.
		rs.cache.demoteHit(key)
	}
	d, disconnected := rs.net.BoundedShortestDistInfo(na, nb, r-walk)
	if disconnected {
		rs.cache.put(key, math.Inf(1), false)
		return false
	}
	if math.IsInf(d, 1) {
		rs.cache.put(key, r-walk, true)
		return false
	}
	rs.cache.put(key, d, false)
	return true
}

// nodeDist returns the cached-or-computed network distance between nodes.
// A lower-bound entry cannot answer an exact-distance query, so it falls
// through to A* and is upgraded with the exact result (the unreachable
// sentinel included).
func (rs *RoadSpace) nodeDist(na, nb roadnet.NodeID) float64 {
	key := uint64(na)<<32 | uint64(uint32(nb))
	if ent, ok := rs.cache.lookup(key); ok {
		if !ent.lb {
			return ent.d
		}
		// A bound cannot answer an exact query; A* still runs.
		rs.cache.demoteHit(key)
	}
	d, _ := rs.net.AStar(na, nb)
	rs.cache.put(key, d, false)
	return d
}

// CacheStats reports shortest-path cache hits and misses since construction,
// summed over all cache stripes.
func (rs *RoadSpace) CacheStats() (hits, misses int64) {
	return rs.cache.stats()
}
