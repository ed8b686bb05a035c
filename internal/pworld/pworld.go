// Package pworld implements the possible-world semantics of Definitions 5–6:
// exact expected total revenue by enumerating all 2^|R| accept/reject worlds
// of the probabilistic bipartite graph, and a Monte-Carlo estimator for
// instances too large to enumerate. It is the ground-truth yardstick for the
// pricing strategies and for the approximation L^g(n, p) of Eq. (1).
package pworld

import (
	"fmt"
	"math"
	"math/rand"

	"spatialcrowd/internal/match"
)

// World describes the probabilistic bipartite graph B^t = <R, W, E, S> with
// chosen prices: task i accepts its price with probability AcceptProb[i] and
// contributes weight Weight[i] = d_i * p_i when matched.
type World struct {
	Graph      *match.Graph // tasks on the left, workers on the right
	AcceptProb []float64    // S^g(p_i), per task
	Weight     []float64    // d_i * p_i, per task
}

// Validate checks the structural invariants of the world.
func (w *World) Validate() error {
	n := w.Graph.NLeft()
	if len(w.AcceptProb) != n || len(w.Weight) != n {
		return fmt.Errorf("pworld: %d tasks but %d probs / %d weights",
			n, len(w.AcceptProb), len(w.Weight))
	}
	for i, p := range w.AcceptProb {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("pworld: task %d acceptance probability %v out of [0,1]", i, p)
		}
		if w.Weight[i] < 0 {
			return fmt.Errorf("pworld: task %d negative weight %v", i, w.Weight[i])
		}
	}
	return nil
}

// MaxTasksExact bounds the enumeration: 2^20 worlds is ~1M matchings.
const MaxTasksExact = 20

// ExpectedRevenueExact computes E[U(B)] by full possible-world enumeration
// (Definition 6). It returns an error when the world is invalid or has more
// than MaxTasksExact tasks.
func ExpectedRevenueExact(w *World) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	n := w.Graph.NLeft()
	if n > MaxTasksExact {
		return 0, fmt.Errorf("pworld: %d tasks exceeds exact enumeration limit %d", n, MaxTasksExact)
	}
	total := 0.0
	accepted := make([]int, 0, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		prob := 1.0
		accepted = accepted[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				prob *= w.AcceptProb[i]
				accepted = append(accepted, i)
			} else {
				prob *= 1 - w.AcceptProb[i]
			}
		}
		if prob == 0 {
			continue
		}
		total += prob * revenueOf(w, accepted)
	}
	return total, nil
}

// ExpectedRevenueMC estimates E[U(B)] by sampling `samples` possible worlds.
// The returned standard error is the sample standard deviation divided by
// sqrt(samples).
func ExpectedRevenueMC(w *World, samples int, rng *rand.Rand) (mean, stderr float64, err error) {
	if err := w.Validate(); err != nil {
		return 0, 0, err
	}
	if samples <= 0 {
		return 0, 0, fmt.Errorf("pworld: samples must be positive, got %d", samples)
	}
	n := w.Graph.NLeft()
	accepted := make([]int, 0, n)
	sum, sumsq := 0.0, 0.0
	for s := 0; s < samples; s++ {
		accepted = accepted[:0]
		for i := 0; i < n; i++ {
			if rng.Float64() < w.AcceptProb[i] {
				accepted = append(accepted, i)
			}
		}
		u := revenueOf(w, accepted)
		sum += u
		sumsq += u * u
	}
	mean = sum / float64(samples)
	variance := sumsq/float64(samples) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / float64(samples)), nil
}

// revenueOf returns U(PWB): the maximum-weight matching value of the
// subgraph induced by the accepting tasks (Definition 5). Edge weights are
// task-determined, so the exact matroid greedy applies.
func revenueOf(w *World, accepted []int) float64 {
	if len(accepted) == 0 {
		return 0
	}
	sub, origin := w.Graph.InducedLeft(accepted)
	weights := make([]float64, len(origin))
	for i, l := range origin {
		weights[i] = w.Weight[l]
	}
	_, total := match.MaxWeightByLeft(sub, weights)
	return total
}
