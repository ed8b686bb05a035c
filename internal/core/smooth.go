package core

import "spatialcrowd/internal/spatial"

// Spatial price smoothing works on dense per-cell price vectors: prices[c]
// is cell c's unit price, and 0 marks a cell that was not priced (real
// prices are at least Params.PMin > 0). Cells past the end of the slice are
// unpriced too.

// SmoothPrices applies one pass of spatial price smoothing: each priced
// cell's price moves toward the average price of its priced neighboring
// cells (up to 8 on a grid; the cluster adjacency on a road network),
// weighted by w in [0, 1). This implements the practical note of
// Section 4.2.3 — "Spatial smoothing can also be integrated to reduce the
// gap of unit prices among neighbouring grids" — which platforms use to
// avoid cliff-edge surges across street boundaries.
//
// Unpriced cells stay 0 and do not contribute to their neighbors' averages.
// The result is a new slice; the input is not modified.
func SmoothPrices(space spatial.Space, prices []float64, w float64) []float64 {
	out := append([]float64(nil), prices...)
	if w <= 0 {
		return out
	}
	w = smoothingWeight(w)
	var buf []int
	for cell, p := range prices {
		if p > 0 {
			out[cell], buf = smoothCell(space, prices, cell, w, buf)
		}
	}
	return out
}

// smoothingWeight caps a positive smoothing weight below 1, where a cell
// would forget its own price entirely.
func smoothingWeight(w float64) float64 {
	if w >= 1 {
		return 0.999
	}
	return w
}

// smoothCell returns the smoothed price of one priced cell, reading its
// neighbors through the reused buffer (returned for the next call).
func smoothCell(space spatial.Space, prices []float64, cell int, w float64, buf []int) (float64, []int) {
	p := prices[cell]
	sum, n := 0.0, 0
	buf = space.NeighborsAppend(cell, buf[:0])
	for _, nb := range buf {
		if np := priceOf(prices, nb); np > 0 {
			sum += np
			n++
		}
	}
	if n == 0 {
		return p, buf
	}
	return (1-w)*p + w*sum/float64(n), buf
}

// priceOf reads a cell's price, 0 for cells past the end of the vector.
func priceOf(prices []float64, cell int) float64 {
	if cell < len(prices) {
		return prices[cell]
	}
	return 0
}

// PriceGap measures the maximum absolute price difference between any two
// neighboring priced cells — the quantity smoothing is meant to shrink.
func PriceGap(space spatial.Space, prices []float64) float64 {
	gap := 0.0
	var buf []int
	for cell, p := range prices {
		if p <= 0 {
			continue
		}
		buf = space.NeighborsAppend(cell, buf[:0])
		for _, nb := range buf {
			if np := priceOf(prices, nb); np > 0 {
				gap = max(gap, p-np, np-p)
			}
		}
	}
	return gap
}
