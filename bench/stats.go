package main

import (
	"math"
	"sort"
)

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile reads the q-quantile off sorted samples (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pct is the q-quantile of unsorted samples (not modified).
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// p99ms is the 99th percentile of nanosecond durations, in milliseconds.
func p99ms(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, d := range ns {
		xs[i] = float64(d) / 1e6
	}
	return pct(xs, 0.99)
}

// tailLadder is the percentiles a tail metric may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile picks the highest percentile of the ladder, at most want,
// that still has ten independent units beyond it: reporting p99 off 300
// windows would be reading three of them. units is the number of independent
// observations behind the samples — windows, not decisions, since the
// decisions of one window share its fate.
func tailQuantile(units int, want float64) float64 {
	for _, q := range tailLadder {
		if q <= want && float64(units)*(1-q) >= 10-1e-9 { // 100 x (1-0.9) is 9.999... in floating point
			return q
		}
	}
	return 0.5
}

// dist summarizes raw latency samples (milliseconds).
type dist struct {
	n     int     // samples
	units int     // independent windows behind them
	p50   float64 // median
	tail  float64 // value at tailQ
	tailQ float64 // the percentile tail was read at
	max   float64
}

func summarize(samples []float64, units int, want float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{n: len(s), units: units, tailQ: tailQuantile(units, want)}
	if len(s) > 0 {
		d.p50, d.tail, d.max = quantile(s, 0.5), quantile(s, d.tailQ), s[len(s)-1]
	}
	return d
}
