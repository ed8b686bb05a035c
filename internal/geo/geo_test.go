package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
		{"paper example w1-r1", Point{3, 5}, Point{5, 5}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestSqDistConsistent(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Keep magnitudes sane to avoid overflow in the square.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p := Point{clamp(ax), clamp(ay)}
		q := Point{clamp(bx), clamp(by)}
		d := p.Dist(q)
		return math.Abs(d*d-p.SqDist(q)) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInRange(t *testing.T) {
	// Paper's running example: all workers have radius 2.5. Task labels
	// follow the assignment Example 5's arithmetic fixes: r1 and r2 are the
	// grid-9 points reachable only by w1; r3 at (5,5) reaches all three.
	w1 := Point{3, 5}
	w2 := Point{7, 5}
	w3 := Point{5, 3}
	r1 := Point{1, 5}
	r2 := Point{2, 6}
	r3 := Point{5, 5}
	const a = 2.5
	tests := []struct {
		name   string
		task   Point
		worker Point
		want   bool
	}{
		{"w1 reaches r1", r1, w1, true},
		{"w1 reaches r2", r2, w1, true},
		{"w1 reaches r3", r3, w1, true},
		{"w2 misses r1", r1, w2, false},
		{"w2 misses r2", r2, w2, false},
		{"w2 reaches r3", r3, w2, true},
		{"w3 misses r1", r1, w3, false},
		{"w3 misses r2", r2, w3, false},
		{"w3 reaches r3", r3, w3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.task.InRange(tt.worker, a); got != tt.want {
				t.Errorf("InRange(%v,%v,%v) = %v, want %v", tt.task, tt.worker, a, got, tt.want)
			}
		})
	}
}

func TestInRangeBoundary(t *testing.T) {
	// The range constraint is a closed disk: exactly-at-radius counts.
	if !(Point{2.5, 0}).InRange(Point{0, 0}, 2.5) {
		t.Error("point exactly at radius should be in range")
	}
	if (Point{2.5 + 1e-9, 0}).InRange(Point{0, 0}, 2.5) {
		t.Error("point just beyond radius should be out of range")
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{4, 5}, Point{1, 2})
	if r.Min != (Point{1, 2}) || r.Max != (Point{4, 5}) {
		t.Fatalf("NewRect did not normalize corners: %v", r)
	}
	if r.Width() != 3 || r.Height() != 3 || r.Area() != 9 {
		t.Errorf("Width/Height/Area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(Point{1, 2}) || !r.Contains(Point{4, 5}) || !r.Contains(Point{2, 3}) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Point{0.999, 3}) || r.Contains(Point{2, 5.001}) {
		t.Error("Contains should exclude exterior points")
	}
	if got := r.Clamp(Point{-10, 10}); got != (Point{1, 5}) {
		t.Errorf("Clamp = %v, want (1,5)", got)
	}
	if got := r.Center(); got != (Point{2.5, 3.5}) {
		t.Errorf("Center = %v", got)
	}
}

func TestGridCellOfPaperExample(t *testing.T) {
	// Figure 1c: 8x8 region, 2-unit cells => 4x4 = 16 grids. The paper indexes
	// 1-based from the bottom-left; we are zero-based, so paper "grid 7" is
	// our cell 6, "grid 9" our 8, "grid 11" our 10.
	g := NewGrid(Square(8), 4, 4)
	if g.NumCells() != 16 {
		t.Fatalf("NumCells = %d, want 16", g.NumCells())
	}
	tests := []struct {
		name string
		p    Point
		want int
	}{
		{"w3 at (5,3) in paper grid 7", Point{5, 3}, 6},
		{"r3 at (5,5) in paper grid 11", Point{5, 5}, 10},
		{"r1 at (1,5) in paper grid 9", Point{1, 5}, 8},
		// (2,6) sits on the cell boundary; our half-open convention places
		// it in the upper cell (paper grid 14), while the paper's Example 2
		// narrative treats it as grid 9 — boundary ties are convention.
		{"boundary point (2,6)", Point{2, 6}, 13},
		{"w1 at (3,5) in paper grid 10", Point{3, 5}, 9},
		{"w2 at (7,5) in paper grid 12", Point{7, 5}, 11},
		{"origin", Point{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.CellOf(tt.p); got != tt.want {
				t.Errorf("CellOf(%v) = %d, want %d", tt.p, got, tt.want)
			}
		})
	}
}

func TestGridCellOfClamping(t *testing.T) {
	g := SquareGrid(100, 10)
	tests := []struct {
		p    Point
		want int
	}{
		{Point{-5, -5}, 0},
		{Point{105, -5}, 9},
		{Point{-5, 105}, 90},
		{Point{105, 105}, 99},
		{Point{100, 100}, 99}, // exact max corner
		// Just past each edge, and the cells just inside it.
		{Point{-1e-9, 50}, 50},
		{Point{0, 50}, 50},
		{Point{99.999999, 50}, 59},
		{Point{100 + 1e-9, 50}, 59},
		{Point{150, 50}, 59},
		{Point{50, -1e-9}, 5},
		{Point{50, 100 + 1e-9}, 95},
		// Distant finite points: the quotient overflows int, so it must be
		// clamped before the conversion, not after.
		{Point{1e300, 50}, 59},
		{Point{-1e300, 50}, 50},
		{Point{50, 1e300}, 95},
		{Point{50, -1e300}, 5},
		{Point{math.MaxFloat64, math.MaxFloat64}, 99},
		{Point{-math.MaxFloat64, -math.MaxFloat64}, 0},
		{Point{math.MaxFloat64, -math.MaxFloat64}, 9},
		{Point{-math.MaxFloat64, math.MaxFloat64}, 90},
		{Point{math.Inf(1), math.Inf(-1)}, 9},
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.want {
			t.Errorf("CellOf(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := SquareGrid(100, 7)
	for i := 0; i < g.NumCells(); i++ {
		c := g.CellCenter(i)
		if got := g.CellOf(c); got != i {
			t.Errorf("CellOf(CellCenter(%d)) = %d", i, got)
		}
		r := g.CellRect(i)
		if !r.Contains(c) {
			t.Errorf("cell %d rect %v does not contain its center %v", i, r, c)
		}
	}
}

func TestGridRoundTripProperty(t *testing.T) {
	g := NewGrid(NewRect(Point{-50, -20}, Point{70, 80}), 13, 9)
	f := func(x, y float64) bool {
		p := Point{math.Mod(math.Abs(x), 120) - 50, math.Mod(math.Abs(y), 100) - 20}
		i := g.CellOf(p)
		if i < 0 || i >= g.NumCells() {
			return false
		}
		// Containment is approximate on cell boundaries (ties go to the
		// higher cell); check the point is within one cell of the rect.
		r := g.CellRect(i)
		const eps = 1e-9
		return p.X >= r.Min.X-eps && p.X <= r.Max.X+g.CellWidth()*eps+eps &&
			p.Y >= r.Min.Y-eps && p.Y <= r.Max.Y+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNeighbors(t *testing.T) {
	g := SquareGrid(100, 4)
	tests := []struct {
		cell int
		want int
	}{
		{0, 3},  // corner
		{1, 5},  // edge
		{5, 8},  // interior
		{15, 3}, // opposite corner
	}
	for _, tt := range tests {
		if got := len(g.Neighbors(tt.cell)); got != tt.want {
			t.Errorf("len(Neighbors(%d)) = %d, want %d", tt.cell, got, tt.want)
		}
	}
	for _, n := range g.Neighbors(5) {
		if n == 5 {
			t.Error("cell should not be its own neighbor")
		}
	}
}

func TestCellsInRange(t *testing.T) {
	g := SquareGrid(8, 4) // 2-unit cells, as the paper example
	// Worker w1 at (3,5) radius 2.5 must cover the cells containing r1 (5,5),
	// r2 (1,5), r3 (2,6): our cells 10, 8, 13.
	cells := g.CellsInRange(Point{3, 5}, 2.5)
	has := map[int]bool{}
	for _, c := range cells {
		has[c] = true
	}
	for _, want := range []int{8, 10, 13} {
		if !has[want] {
			t.Errorf("CellsInRange missing cell %d; got %v", want, cells)
		}
	}
	// A tiny disk deep inside one cell covers exactly that cell.
	cells = g.CellsInRange(Point{1, 1}, 0.5)
	if len(cells) != 1 || cells[0] != 0 {
		t.Errorf("tiny disk: got %v, want [0]", cells)
	}
}

func TestCellsInRangeCoversEveryReachablePoint(t *testing.T) {
	g := SquareGrid(100, 10)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		center := Point{rng.Float64() * 100, rng.Float64() * 100}
		radius := rng.Float64() * 30
		covered := map[int]bool{}
		for _, c := range g.CellsInRange(center, radius) {
			covered[c] = true
		}
		// Sample points in the disk; their cells must be in the cover set.
		for s := 0; s < 20; s++ {
			ang := rng.Float64() * 2 * math.Pi
			rad := rng.Float64() * radius
			p := Point{center.X + rad*math.Cos(ang), center.Y + rad*math.Sin(ang)}
			if !g.Region.Contains(p) {
				continue
			}
			if !covered[g.CellOf(p)] {
				t.Fatalf("point %v in disk(%v,%v) maps to uncovered cell %d",
					p, center, radius, g.CellOf(p))
			}
		}
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid with zero cols should panic")
		}
	}()
	NewGrid(Square(10), 0, 5)
}

func TestCellRectPanics(t *testing.T) {
	g := SquareGrid(10, 2)
	defer func() {
		if recover() == nil {
			t.Error("CellRect out of range should panic")
		}
	}()
	g.CellRect(4)
}

func TestNeighborsAppendMatchesNeighbors(t *testing.T) {
	g := SquareGrid(9, 3)
	buf := make([]int, 0, 8)
	for i := 0; i < g.NumCells(); i++ {
		want := g.Neighbors(i)
		buf = g.NeighborsAppend(i, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("cell %d: append variant returned %v, want %v", i, buf, want)
		}
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("cell %d: append variant returned %v, want %v", i, buf, want)
			}
		}
	}
	// Appends after existing content instead of clobbering it.
	pre := []int{42}
	out := g.NeighborsAppend(4, pre)
	if out[0] != 42 || len(out) != 1+len(g.Neighbors(4)) {
		t.Fatalf("NeighborsAppend clobbered the prefix: %v", out)
	}
}
