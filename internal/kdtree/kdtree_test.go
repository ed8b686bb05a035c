package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
)

func randomPoints(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if id, d := tr.Nearest(geo.Point{}); id != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty = %d/%v", id, d)
	}
	if got := tr.InRadiusAppend(geo.Point{}, 5, nil); got != nil {
		t.Errorf("InRadiusAppend on empty = %v", got)
	}
}

func TestSinglePoint(t *testing.T) {
	tr := Build([]geo.Point{{X: 3, Y: 4}})
	id, d := tr.Nearest(geo.Point{})
	if id != 0 || math.Abs(d-5) > 1e-12 {
		t.Errorf("Nearest = %d/%v, want 0/5", id, d)
	}
}

func TestNearestVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		pts := randomPoints(rng, n)
		tr := Build(pts)
		for q := 0; q < 20; q++ {
			query := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			bestI, bestD := -1, math.Inf(1)
			for i, p := range pts {
				if d := p.Dist(query); d < bestD {
					bestI, bestD = i, d
				}
			}
			gotI, gotD := tr.Nearest(query)
			if math.Abs(gotD-bestD) > 1e-9 {
				t.Fatalf("trial %d: nearest dist %v, brute %v", trial, gotD, bestD)
			}
			// Distances tie rarely with random floats; ids must then match.
			if gotI != bestI && math.Abs(pts[gotI].Dist(query)-bestD) > 1e-9 {
				t.Fatalf("trial %d: wrong nearest id", trial)
			}
		}
	}
}

func TestInRadiusVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		pts := randomPoints(rng, n)
		tr := Build(pts)
		query := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		r := rng.Float64() * 40
		got := map[int]bool{}
		for _, id := range tr.InRadiusAppend(query, r, nil) {
			if got[id] {
				t.Fatalf("duplicate id %d", id)
			}
			got[id] = true
		}
		for i, p := range pts {
			want := p.Dist(query) <= r
			if got[i] != want {
				t.Fatalf("trial %d: point %d in-radius %v, tree says %v", trial, i, want, got[i])
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: 5, Y: 5}
	}
	tr := Build(pts)
	if got := tr.InRadiusAppend(geo.Point{X: 5, Y: 5}, 0, nil); len(got) != 20 {
		t.Errorf("found %d of 20 duplicates", len(got))
	}
}

func TestBuildDoesNotAliasInput(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(4)), 50)
	orig := append([]geo.Point(nil), pts...)
	Build(pts)
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatal("Build mutated the caller's slice")
		}
	}
}
