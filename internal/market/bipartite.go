package market

import (
	"math"
	"math/bits"
	"slices"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/spatial"
)

// BuildBipartite constructs the probabilistic bipartite graph B^t of
// Section 2.2 for one period: left vertices are the given tasks, right
// vertices the given workers, with an edge whenever the worker's range
// constraint admits the task. Complexity O(|R| * |W|) pairwise; use
// BuildBipartiteCellIndexScratch for large instances.
func BuildBipartite(tasks []Task, workers []Worker) *match.Graph {
	g := match.NewGraph(len(tasks), len(workers))
	for wi, w := range workers {
		r2 := w.Radius * w.Radius
		for ti := range tasks {
			if tasks[ti].Origin.SqDist(w.Loc) <= r2 {
				g.AddEdge(ti, wi)
			}
		}
	}
	return g
}

// CellIndexScratch is reusable working state for the cell-index graph
// builder: the worker-by-cell buckets, the per-task candidate-cell buffer,
// and the graph itself survive across batches, so a caller building one
// graph per pricing window allocates nothing in steady state. One instance
// serves one goroutine; the zero value is ready.
//
// The buckets are compressed sparse rows over cell ids: cell c's workers are
// workers[start[c]:start[c+1]], ascending by batch index.
type CellIndexScratch struct {
	graph   *match.Graph
	start   []int // per cell id, plus one: bucket offsets into workers
	workers []int // batch worker indices grouped by cell
	cellOf  []int // per batch worker: its cell
	cells   []int // candidate-cell buffer
}

// BuildBipartiteCellIndexScratch is BuildBipartite accelerated by the
// spatial backend's cell index. Workers are bucketed by cell once; each task
// then distance-tests only the workers in cells intersecting the disk of the
// period's maximum radius around its origin. Since a period has far fewer
// tasks than there are accumulated idle workers, the task-centric scan keeps
// edge generation near-linear, which is what makes the 500k-scale experiment
// (Fig. 8 scalability) tractable. The offline simulator and the streaming
// engine's cell-index mode both build with it, so candidate enumeration —
// and therefore adjacency order, which steers tie breaks in the greedy
// matching — is byte-identical between them, the property the exact
// replay-equivalence tests pin.
//
// A nil scratch allocates fresh state; with caller-owned scratch the
// returned graph is backed by it and valid until its next use, and the
// adjacency is the same either way.
func BuildBipartiteCellIndexScratch(space spatial.Space, tasks []Task, workers []Worker, sc *CellIndexScratch) *match.Graph {
	if sc == nil {
		sc = &CellIndexScratch{}
	}
	if sc.graph == nil {
		sc.graph = match.NewGraph(len(tasks), len(workers))
	} else {
		sc.graph.Reset(len(tasks), len(workers))
	}
	g := sc.graph
	if len(tasks) == 0 || len(workers) == 0 {
		return g
	}
	// Stable counting sort of the workers by cell: count two places up, so
	// that after the prefix sums and the scatter start[c] is where cell c
	// begins.
	start := resizeZeroed(sc.start, space.NumCells()+2)
	cellOf := resize(sc.cellOf, len(workers))
	maxR := 0.0
	for wi := range workers {
		c := space.CellOf(workers[wi].Loc)
		cellOf[wi] = c
		start[c+2]++
		if workers[wi].Radius > maxR {
			maxR = workers[wi].Radius
		}
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	byCell := resize(sc.workers, len(workers))
	for wi, c := range cellOf {
		byCell[start[c+1]] = wi
		start[c+1]++
	}
	sc.start, sc.cellOf, sc.workers = start, cellOf, byCell
	for ti := range tasks {
		origin := tasks[ti].Origin
		sc.cells = space.CellsInRangeAppend(origin, maxR, sc.cells[:0])
		for _, cell := range sc.cells {
			for _, wi := range byCell[start[cell]:start[cell+1]] {
				w := &workers[wi]
				if origin.SqDist(w.Loc) <= w.Radius*w.Radius {
					g.AddEdge(ti, wi)
				}
			}
		}
	}
	return g
}

// WorkerIndex is a uniform bucket grid over a worker pool for range-candidate
// queries: "which pooled workers can serve a task at this origin". The
// streaming dispatch engine rebuilds one per pricing window and generates the
// window's bipartite edges from it.
//
// A build is one stable counting sort of the pool into grid cells: the cell
// side is the pool's largest radius (so a query touches at most about three
// cell rows), grown as needed to keep the cell count within the pool size, and
// the grid spans the pool's own bounding box. Nothing carries over from the
// previous build except the arenas, so a build costs the same whatever
// changed in the pool, and in steady state allocates nothing. A query scans
// the cell rows its disk overlaps, keeps each worker whose own range
// constraint admits the origin — the same origin.SqDist(loc) <= r*r test as
// BuildBipartite — and returns pool indices in ascending order, so adjacency
// (and with it every matching tie break) is that of the pairwise scan.
//
// The index is total: a worker whose location is not finite or whose radius
// is NaN can serve no task and is left out of the grid, and a task whose
// origin is not finite has no candidates; no coordinate reaches an array
// index unclamped. The zero value is an empty index ready for Reindex.
type WorkerIndex struct {
	n    int     // pool size of the last build
	maxR float64 // largest |Radius| among the gridded workers

	// Grid of the last build: cell (cx, cy) is number cy*nx+cx and holds
	// slots[start[c]:start[c+1]], ascending by pool index.
	minX, minY float64
	invX, invY float64 // cells per unit length (0 along a one-cell axis)
	nx, ny     int
	start      []int32
	slots      []gridSlot

	cell      []int32  // build scratch: worker -> cell, -1 when left out
	buf       []int    // reused candidate buffer for eager graphs
	markWords []uint64 // reused bitmap for ascending candidate emission

	// Lazy lists of the last BuildGraphInto: list l's task origin and, once
	// firstBlock has left the list open, the cursors above resumes from.
	origins []geo.Point
	resume  []runSpan // list l's cursors: runs[resume[l].at:][:resume[l].n]
	runs    []cellRun
}

// cellRun is a cursor over one grid cell's slots, slots[at:end].
type cellRun struct{ at, end int32 }

// runSpan locates one list's cursors in WorkerIndex.runs.
type runSpan struct{ at, n int32 }

// gridSlot is one gridded worker, packed so a query's distance filter reads
// the cell run sequentially instead of chasing into the pool.
type gridSlot struct {
	loc geo.Point
	r2  float64 // Radius*Radius, the right-hand side of the range test
	wi  int32   // pool index
}

// NewWorkerIndex indexes the pool. The index keeps its own copy of what it
// needs, so the caller may change the pool afterwards; queries keep
// answering for the pool as it was.
func NewWorkerIndex(workers []Worker) *WorkerIndex {
	ix := &WorkerIndex{}
	ix.Reindex(workers)
	return ix
}

// Update indexes the pool; it is Reindex under the name callers that
// maintain one index across windows have always used.
func (ix *WorkerIndex) Update(workers []Worker) { ix.Reindex(workers) }

// Reindex rebuilds the grid over a new pool, reusing the arenas of the
// previous build.
func (ix *WorkerIndex) Reindex(workers []Worker) {
	ix.n = len(workers)

	// Pass 1: reach and bounding box of the workers that can have an edge.
	live := 0
	maxR := 0.0
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range workers {
		w := &workers[i]
		if !gridded(w) {
			continue
		}
		live++
		// The range test squares the radius, so a negative one reaches as
		// far as its magnitude.
		maxR = max(maxR, math.Abs(w.Radius))
		minX, maxX = min(minX, w.Loc.X), max(maxX, w.Loc.X)
		minY, maxY = min(minY, w.Loc.Y), max(maxY, w.Loc.Y)
	}
	ix.maxR, ix.minX, ix.minY = maxR, minX, minY
	nx := axisCells(maxX-minX, maxR, live)
	ny := axisCells(maxY-minY, maxR, live)
	if nx*ny > live {
		shrink := math.Sqrt(float64(live) / (float64(nx) * float64(ny)))
		nx = max(1, int(float64(nx)*shrink))
		ny = max(1, int(float64(ny)*shrink))
	}
	ix.nx, ix.ny = nx, ny
	ix.invX, ix.invY = 0, 0
	if nx > 1 {
		ix.invX = float64(nx) / (maxX - minX)
	}
	if ny > 1 {
		ix.invY = float64(ny) / (maxY - minY)
	}

	// Pass 2: count per cell, two places up so that after the prefix sums and
	// the scatter below start[c] is where cell c begins.
	ix.start = resizeZeroed(ix.start, nx*ny+2)
	ix.cell = resize(ix.cell, len(workers))
	start, cell := ix.start, ix.cell
	for i := range workers {
		w := &workers[i]
		if !gridded(w) {
			cell[i] = -1
			continue
		}
		c := axisCell(w.Loc.Y, minY, ix.invY, ny)*nx + axisCell(w.Loc.X, minX, ix.invX, nx)
		cell[i] = int32(c)
		start[c+2]++
	}
	for c := 2; c < len(start); c++ {
		start[c] += start[c-1]
	}
	// Pass 3: scatter in pool order, which keeps every cell ascending.
	ix.slots = resize(ix.slots, live)
	for i, c := range cell {
		if c < 0 {
			continue
		}
		w := &workers[i]
		ix.slots[start[c+1]] = gridSlot{loc: w.Loc, r2: w.Radius * w.Radius, wi: int32(i)}
		start[c+1]++
	}
}

// gridded reports whether the worker can have an edge at all: a non-finite
// location or a NaN radius fails the range test against every origin.
func gridded(w *Worker) bool {
	return finite(w.Loc.X) && finite(w.Loc.Y) && w.Radius == w.Radius
}

func finite(x float64) bool { return x-x == 0 }

// axisCells picks the cell count along an axis of the given extent: cells at
// least side wide, at least one, at most limit.
func axisCells(extent, side float64, limit int) int {
	if !(extent > 0) || limit < 1 {
		return 1
	}
	n := extent / side
	if !(n < float64(limit)) { // also side == 0 and an overflowed extent
		return limit
	}
	return max(1, int(n))
}

// axisCell maps a coordinate to its cell along an axis, clamped to the grid.
// It is monotone in x, which is all the query needs to bracket the cells of
// the workers between two coordinates.
func axisCell(x, lo, inv float64, n int) int {
	c := (x - lo) * inv
	if !(c > 0) { // left of the box, or Inf*0 on a one-cell axis
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int(c)
}

// axisSpan returns the cell range along an axis that holds every worker the
// range test can admit for a task at coordinate o. The margin over maxR
// covers the rounding in the test and in the two sums here, and the squares
// that underflow to zero, so the bracket never loses a worker the pairwise
// scan would keep.
func (ix *WorkerIndex) axisSpan(o, lo, inv float64, n int) (int, int) {
	reach := ix.maxR + (ix.maxR+math.Abs(o))*1e-15 + 1e-150
	return axisCell(o-reach, lo, inv, n), axisCell(o+reach, lo, inv, n)
}

// Candidates appends to out the pool indices of every worker whose range
// constraint admits a task at origin, in ascending order, and returns the
// extended slice. Pass a reused buffer to stay allocation-free across
// queries.
func (ix *WorkerIndex) Candidates(origin geo.Point, out []int) []int {
	if len(ix.slots) == 0 || !finite(origin.X) || !finite(origin.Y) {
		return out
	}
	from := len(out)
	cx0, cx1 := ix.axisSpan(origin.X, ix.minX, ix.invX, ix.nx)
	cy0, cy1 := ix.axisSpan(origin.Y, ix.minY, ix.invY, ix.ny)
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		run := ix.slots[ix.start[row+cx0]:ix.start[row+cx1+1]]
		for k := range run {
			s := &run[k]
			if origin.SqDist(s.loc) <= s.r2 {
				out = append(out, int(s.wi))
			}
		}
	}
	ix.ascending(out[from:])
	return out
}

// ascending reorders a query's candidate pool indices into ascending order.
// A comparison sort here costs more than the query it follows, so the
// candidates — distinct integers below the pool size — are scattered into a
// reused bitmap and re-emitted by scanning the touched word range: O(k +
// (max-min)/64) per query instead of O(k log k), with the bitmap left zeroed
// for the next call.
func (ix *WorkerIndex) ascending(cand []int) {
	n := len(cand)
	if n <= 12 {
		for i := 1; i < n; i++ {
			v := cand[i]
			j := i - 1
			for j >= 0 && cand[j] > v {
				cand[j+1] = cand[j]
				j--
			}
			cand[j+1] = v
		}
		return
	}
	words := (ix.n + 63) / 64
	if cap(ix.markWords) < words {
		ix.markWords = make([]uint64, words)
	}
	mark := ix.markWords[:words]
	lo, hi := cand[0], cand[0]
	for _, wi := range cand {
		mark[wi>>6] |= 1 << (uint(wi) & 63)
		if wi < lo {
			lo = wi
		}
		if wi > hi {
			hi = wi
		}
	}
	k := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		b := mark[w]
		mark[w] = 0
		for b != 0 {
			cand[k] = w<<6 + bits.TrailingZeros64(b)
			k++
			b &= b - 1
		}
	}
}

// BuildGraphInto returns the bipartite graph of the given tasks against the
// indexed pool — the same edges in the same order as BuildBipartite — in a
// caller-reused graph, reset to the batch's dimensions. It returns g.
//
// Over a pool of more than eagerPool workers the graph is lazy
// (match.Graph.ResetLazy): building it only records the task origins, and a
// task's list is enumerated from the index as it is read. The first
// extension emits the task's candidates in the lowest 64-index block of the
// pool that holds any, the second everything above that block, so a search
// that stops at an early candidate leaves most of the list unbuilt, and a
// list read to the end costs about one Candidates query. The graph reads
// the index, so it is valid until the index's next Reindex, Update or
// BuildGraphInto.
func (ix *WorkerIndex) BuildGraphInto(tasks []Task, g *match.Graph) *match.Graph {
	if ix.n <= eagerPool {
		g.Reset(len(tasks), ix.n)
		for ti := range tasks {
			ix.buf = ix.Candidates(tasks[ti].Origin, ix.buf[:0])
			for _, wi := range ix.buf {
				g.AddEdge(ti, wi)
			}
		}
		return g
	}
	ix.origins = resize(ix.origins, len(tasks))
	for ti := range tasks {
		ix.origins[ti] = tasks[ti].Origin
	}
	ix.resume = resize(ix.resume, len(tasks))
	ix.runs = ix.runs[:0]
	g.ResetLazy(len(tasks), ix.n, (*candidateLists)(ix))
	return g
}

// candidateLists is a WorkerIndex as the source of the lazy graphs it
// builds: list l holds the candidates of origins[l].
type candidateLists WorkerIndex

// Extend implements match.Source. A list that firstBlock left open holds
// exactly one block, which is how Extend tells the two extensions apart.
func (cl *candidateLists) Extend(l int, adj []int) ([]int, bool) {
	ix := (*WorkerIndex)(cl)
	if len(adj) == 0 {
		return ix.firstBlock(l, adj)
	}
	return ix.above(l, adj), true
}

// eagerPool is the largest pool whose graphs BuildGraphInto builds at once.
// Such a pool spans at most two 64-index blocks, so a first extension would
// read at least half of each list's slots, and a saturated window, which
// reads every list to the end, would pay for the split. On the dense-grid
// benchmark (pools of about 100 workers) building lazily as well cost 12 %
// of its throughput (EXPERIMENTS.md, "Read the graph, don't build it").
const eagerPool = 2 * 64

// firstBlock appends the candidates of list l's task that lie in the
// lowest 64-index block of the pool holding any, in ascending order, and
// reports whether that was all of them. It walks a cursor along each cell
// run the query overlaps; a run is ascending by pool index, so one block's
// slots are a prefix of what each cursor has left, and the block's
// candidates come out of one bitmap word. The cursors with slots left stay
// in ix.runs for above.
func (ix *WorkerIndex) firstBlock(l int, adj []int) ([]int, bool) {
	origin := ix.origins[l]
	if len(ix.slots) == 0 || !finite(origin.X) || !finite(origin.Y) {
		return adj, true
	}
	cx0, cx1 := ix.axisSpan(origin.X, ix.minX, ix.invX, ix.nx)
	cy0, cy1 := ix.axisSpan(origin.Y, ix.minY, ix.invY, ix.ny)
	from := len(ix.runs)
	next := int32(math.MaxInt32) // smallest pool index a cursor points at
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * ix.nx
		for c := row + cx0; c <= row+cx1; c++ {
			if at, end := ix.start[c], ix.start[c+1]; at < end {
				ix.runs = append(ix.runs, cellRun{at, end})
				next = min(next, ix.slots[at].wi)
			}
		}
	}
	runs, slots := ix.runs[from:], ix.slots
	for len(runs) > 0 {
		last := next | 63 // the block of next ends here
		next = math.MaxInt32
		var word uint64
		for k := 0; k < len(runs); {
			run := slots[runs[k].at:runs[k].end]
			i := 0
			for ; i < len(run) && run[i].wi <= last; i++ {
				if origin.SqDist(run[i].loc) <= run[i].r2 {
					word |= 1 << (uint(run[i].wi) & 63)
				}
			}
			if i == len(run) {
				runs[k] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
				continue
			}
			runs[k].at += int32(i)
			next = min(next, run[i].wi)
			k++
		}
		if word != 0 {
			base := int(last &^ 63)
			for ; word != 0; word &= word - 1 {
				adj = append(adj, base+bits.TrailingZeros64(word))
			}
			break
		}
	}
	ix.runs = ix.runs[:from+len(runs)]
	ix.resume[l] = runSpan{int32(from), int32(len(runs))}
	return adj, len(runs) == 0
}

// above appends, in ascending order, every candidate of list l's task past
// the block that ends adj: the rest of the list firstBlock began, read from
// the cursors it left.
func (ix *WorkerIndex) above(l int, adj []int) []int {
	origin := ix.origins[l]
	from := len(adj)
	span := ix.resume[l]
	for _, r := range ix.runs[span.at : span.at+span.n] {
		run := ix.slots[r.at:r.end]
		for k := range run {
			s := &run[k]
			if origin.SqDist(s.loc) <= s.r2 {
				adj = append(adj, int(s.wi))
			}
		}
	}
	ix.ascending(adj[from:])
	return adj
}

// resize returns p with length n, reusing capacity; contents are unspecified.
func resize[T any](p []T, n int) []T {
	return slices.Grow(p[:0], n)[:n]
}

// resizeZeroed is resize with every entry zero.
func resizeZeroed[T any](p []T, n int) []T {
	p = resize(p, n)
	clear(p)
	return p
}
