// Package kdtree implements a static 2-d tree over points, supporting
// nearest-neighbor and radius queries. spatial.RoadSpace uses it to snap
// positions to road-network nodes and to enumerate the nodes within range.
package kdtree

import (
	"math"
	"sort"

	"spatialcrowd/internal/geo"
)

// Tree is an immutable 2-d tree with an implicit layout: the node of the
// subarray [lo, hi) is its median position, with children in [lo, mid) and
// [mid+1, hi), alternating split axes by depth. The zero value is an empty
// tree.
type Tree struct {
	pts []geo.Point // stored in tree order
	ids []int       // input position per point, parallel to pts
}

// Build constructs a tree over the given points (copied, not retained);
// queries report a point by its position in this slice.
func Build(points []geo.Point) *Tree {
	t := &Tree{pts: append([]geo.Point(nil), points...), ids: make([]int, len(points))}
	for i := range t.ids {
		t.ids[i] = i
	}
	t.buildWith(&byAxis{t: t}, 0, len(points), 0)
	return t
}

// buildWith recursively median-splits pts[lo:hi] on the given axis. The
// subrange is fully sorted on the axis (simpler than quickselect; Build is
// a one-time cost and n log^2 n total is fine at the sizes involved), which
// places the median at the pivot position. One sorter is reused for every
// recursive sort so the interface conversion boxes nothing per subrange.
func (t *Tree) buildWith(b *byAxis, lo, hi, axis int) {
	if hi-lo <= 1 {
		return
	}
	b.lo, b.axis, b.n = lo, axis, hi-lo
	sort.Sort(b)
	mid := (lo + hi) / 2
	t.buildWith(b, lo, mid, 1-axis)
	t.buildWith(b, mid+1, hi, 1-axis)
}

type byAxis struct {
	t    *Tree
	lo   int
	axis int
	n    int
}

func (b byAxis) Len() int { return b.n }
func (b byAxis) Less(i, j int) bool {
	pi, pj := b.t.pts[b.lo+i], b.t.pts[b.lo+j]
	if b.axis == 0 {
		return pi.X < pj.X
	}
	return pi.Y < pj.Y
}
func (b byAxis) Swap(i, j int) {
	b.t.pts[b.lo+i], b.t.pts[b.lo+j] = b.t.pts[b.lo+j], b.t.pts[b.lo+i]
	b.t.ids[b.lo+i], b.t.ids[b.lo+j] = b.t.ids[b.lo+j], b.t.ids[b.lo+i]
}

// Nearest returns the position and distance of the point closest to q.
// It returns (-1, +Inf) on an empty tree.
func (t *Tree) Nearest(q geo.Point) (int, float64) {
	if len(t.pts) == 0 {
		return -1, math.Inf(1)
	}
	bestID, bestD2 := -1, math.Inf(1)
	t.nearest(0, len(t.pts), 0, q, &bestID, &bestD2)
	return bestID, math.Sqrt(bestD2)
}

func (t *Tree) nearest(lo, hi, axis int, q geo.Point, bestID *int, bestD2 *float64) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	p := t.pts[mid]
	if d2 := p.SqDist(q); d2 < *bestD2 {
		*bestD2 = d2
		*bestID = t.ids[mid]
	}
	var qa, pa float64
	if axis == 0 {
		qa, pa = q.X, p.X
	} else {
		qa, pa = q.Y, p.Y
	}
	nearLo, nearHi, farLo, farHi := lo, mid, mid+1, hi
	if qa > pa {
		nearLo, nearHi, farLo, farHi = mid+1, hi, lo, mid
	}
	t.nearest(nearLo, nearHi, 1-axis, q, bestID, bestD2)
	if diff := qa - pa; diff*diff < *bestD2 {
		t.nearest(farLo, farHi, 1-axis, q, bestID, bestD2)
	}
}

// InRadiusAppend appends the positions of all points within the closed
// disk of radius r around q to out and returns the extended slice. Passing
// a reused buffer keeps repeated queries allocation-free, which matters on
// per-task hot paths like bipartite candidate generation.
func (t *Tree) InRadiusAppend(q geo.Point, r float64, out []int) []int {
	if len(t.pts) == 0 || r < 0 {
		return out
	}
	t.inRadius(0, len(t.pts), 0, q, r*r, &out)
	return out
}

func (t *Tree) inRadius(lo, hi, axis int, q geo.Point, r2 float64, out *[]int) {
	if hi <= lo {
		return
	}
	mid := (lo + hi) / 2
	p := t.pts[mid]
	if p.SqDist(q) <= r2 {
		*out = append(*out, t.ids[mid])
	}
	var qa, pa float64
	if axis == 0 {
		qa, pa = q.X, p.X
	} else {
		qa, pa = q.Y, p.Y
	}
	diff := qa - pa
	if diff <= 0 || diff*diff <= r2 {
		t.inRadius(lo, mid, 1-axis, q, r2, out)
	}
	if diff >= 0 || diff*diff <= r2 {
		t.inRadius(mid+1, hi, 1-axis, q, r2, out)
	}
}
