package match

import (
	"fmt"
	"sort"
)

// MaxWeightByLeft computes an exact maximum-weight matching when the weight
// of every edge (l, r) equals weight[l], i.e. the weight is determined by the
// left (task) vertex. This is precisely the structure of Definition 5, where
// every edge of task r weighs d_r * p_r regardless of the worker.
//
// The matchable left subsets form a transversal matroid, so the greedy
// algorithm — scan tasks by decreasing weight, keep each task whose addition
// still admits an augmenting path — is exact. Complexity O(L * E).
// Tasks with non-positive weight are skipped (they cannot increase revenue).
func MaxWeightByLeft(g *Graph, weight []float64) (*Matching, float64) {
	return MaxWeightByLeftScratch(g, weight, nil)
}

// MaxWeightScratch is reusable working state for MaxWeightByLeftScratch: the
// weight-sorted order and the incremental matcher survive across calls, so a
// caller matching one batch per pricing window allocates nothing in steady
// state. One instance serves one goroutine.
type MaxWeightScratch struct {
	order []int
	inc   *Incremental
}

// MaxWeightByLeftScratch is MaxWeightByLeft with caller-owned scratch state.
// A nil scratch allocates fresh state (exactly MaxWeightByLeft). The
// returned matching is backed by the scratch and valid until its next use.
func MaxWeightByLeftScratch(g *Graph, weight []float64, sc *MaxWeightScratch) (*Matching, float64) {
	if len(weight) != g.NLeft() {
		panic(fmt.Sprintf("match: %d weights for %d left vertices", len(weight), g.NLeft()))
	}
	if sc == nil {
		sc = &MaxWeightScratch{}
	}
	if cap(sc.order) >= g.NLeft() {
		sc.order = sc.order[:g.NLeft()]
	} else {
		sc.order = make([]int, g.NLeft())
	}
	order := sc.order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return weight[order[i]] > weight[order[j]] })

	if sc.inc == nil {
		sc.inc = NewIncremental(g)
	} else {
		sc.inc.Reset(g)
	}
	inc := sc.inc
	total := 0.0
	for _, l := range order {
		if weight[l] <= 0 {
			break
		}
		if inc.TryAugment(l) {
			total += weight[l]
		}
	}
	return inc.Matching(), total
}
