package geo

import "fmt"

// Grid partitions a rectangular region of interest into Cols x Rows equal
// cells, indexed 0..NumCells()-1 from the bottom-left, row-major (cell 0 is
// the bottom-left cell, cell Cols-1 the bottom-right, as in Figure 1c of the
// paper where "grid 1" is bottom-left; our indices are zero-based).
type Grid struct {
	Region Rect
	Cols   int
	Rows   int
}

// NewGrid builds a grid over region with cols x rows cells. It panics on
// non-positive dimensions or an empty region: a grid is part of experiment
// configuration, so a bad value is a programming error rather than runtime
// input.
func NewGrid(region Rect, cols, rows int) Grid {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("geo: grid dimensions must be positive, got %dx%d", cols, rows))
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		panic(fmt.Sprintf("geo: grid region must be non-empty, got %v", region))
	}
	return Grid{Region: region, Cols: cols, Rows: rows}
}

// SquareGrid builds an n x n grid over the square [0,side]^2.
func SquareGrid(side float64, n int) Grid {
	return NewGrid(Square(side), n, n)
}

// NumCells returns the number of grid cells G.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellWidth returns the horizontal size of one cell.
func (g Grid) CellWidth() float64 { return g.Region.Width() / float64(g.Cols) }

// CellHeight returns the vertical size of one cell.
func (g Grid) CellHeight() float64 { return g.Region.Height() / float64(g.Rows) }

// CellOf returns the index of the cell containing p. Points outside the
// region are clamped to the nearest boundary cell, so every point maps to a
// valid index; this mirrors the platform practice of attributing slightly
// out-of-region requests to the nearest market.
func (g Grid) CellOf(p Point) int {
	cx := clampCell((p.X-g.Region.Min.X)/g.CellWidth(), g.Cols)
	cy := clampCell((p.Y-g.Region.Min.Y)/g.CellHeight(), g.Rows)
	return cy*g.Cols + cx
}

// clampCell converts a cell coordinate q to an index in [0, n). It clamps
// in float64 before converting: a quotient beyond int's range (a distant but
// finite point) would otherwise wrap to a wrong boundary cell. NaN maps to 0.
func clampCell(q float64, n int) int {
	if !(q >= 0) {
		return 0
	}
	if q >= float64(n) {
		return n - 1
	}
	return int(q)
}

// CellRect returns the rectangle of cell i. It panics if i is out of range.
func (g Grid) CellRect(i int) Rect {
	if i < 0 || i >= g.NumCells() {
		panic(fmt.Sprintf("geo: cell index %d out of range [0,%d)", i, g.NumCells()))
	}
	cx := i % g.Cols
	cy := i / g.Cols
	w, h := g.CellWidth(), g.CellHeight()
	min := Point{g.Region.Min.X + float64(cx)*w, g.Region.Min.Y + float64(cy)*h}
	return Rect{Min: min, Max: Point{min.X + w, min.Y + h}}
}

// CellCenter returns the center point of cell i.
func (g Grid) CellCenter(i int) Point { return g.CellRect(i).Center() }

// Neighbors returns the indices of the up-to-8 cells adjacent to cell i
// (including diagonals). Useful for spatial price smoothing.
func (g Grid) Neighbors(i int) []int {
	return g.NeighborsAppend(i, make([]int, 0, 8))
}

// NeighborsAppend appends the indices of the up-to-8 cells adjacent to cell i
// to out and returns the extended slice, in the same order as Neighbors.
// Passing a reused buffer keeps repeated queries allocation-free, which
// matters on per-worker hot paths like repositioning and price smoothing
// (mirrors kdtree.InRadiusAppend).
func (g Grid) NeighborsAppend(i int, out []int) []int {
	cx := i % g.Cols
	cy := i / g.Cols
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := cx+dx, cy+dy
			if nx < 0 || nx >= g.Cols || ny < 0 || ny >= g.Rows {
				continue
			}
			out = append(out, ny*g.Cols+nx)
		}
	}
	return out
}

// Dist returns the travel distance between two points under the grid's
// metric: the Euclidean distance of the plane the grid partitions. It makes
// Grid satisfy the spatial.Space interface directly, so grid-backed code
// paths pay no wrapper indirection.
func (g Grid) Dist(a, b Point) float64 { return a.Dist(b) }

// CellsInRange returns the indices of all cells whose rectangle intersects
// the closed disk of radius r around center. MAPS uses this to enumerate the
// grids a worker can supply without scanning every task.
func (g Grid) CellsInRange(center Point, r float64) []int {
	return g.CellsInRangeAppend(center, r, nil)
}

// CellsInRangeAppend is CellsInRange appending into out, in the same order.
// Passing a reused buffer keeps per-task candidate enumeration
// allocation-free (mirrors NeighborsAppend).
func (g Grid) CellsInRangeAppend(center Point, r float64, out []int) []int {
	// Bound the scan to the cells overlapping the disk's bounding box.
	w, h := g.CellWidth(), g.CellHeight()
	minCX := int((center.X - r - g.Region.Min.X) / w)
	maxCX := int((center.X + r - g.Region.Min.X) / w)
	minCY := int((center.Y - r - g.Region.Min.Y) / h)
	maxCY := int((center.Y + r - g.Region.Min.Y) / h)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.Cols {
		maxCX = g.Cols - 1
	}
	if maxCY >= g.Rows {
		maxCY = g.Rows - 1
	}
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			i := cy*g.Cols + cx
			if rectIntersectsDisk(g.CellRect(i), center, r) {
				out = append(out, i)
			}
		}
	}
	return out
}

// rectIntersectsDisk reports whether rect and the closed disk (center, r)
// share at least one point.
func rectIntersectsDisk(rect Rect, center Point, r float64) bool {
	nearest := rect.Clamp(center)
	return nearest.SqDist(center) <= r*r
}
