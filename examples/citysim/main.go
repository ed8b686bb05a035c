// Citysim: a full-day simulation with a mid-day demand shift, exercising
// MAPS's change detection (Section 4.2.2). At noon a festival doubles the
// crowd's willingness to pay in the city center; the statistically-
// significant-deviation detector notices, drops the stale acceptance
// statistics, and re-learns the new market.
//
//	go run ./examples/citysim
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spatialcrowd"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/stats"
)

const (
	periods   = 600 // one-minute periods: a 10-hour day
	shiftAt   = 300 // the festival starts mid-day
	citySide  = 50.0
	gridSide  = 5
	perPeriod = 30 // orders per period
)

func main() {
	rng := rand.New(rand.NewSource(2))
	grid := spatialcrowd.Grid(geo.SquareGrid(citySide, gridSide))

	morning := stats.TruncNormal{Mu: 1.8, Sigma: 0.8, Lo: 1, Hi: 5}
	festival := stats.TruncNormal{Mu: 3.2, Sigma: 0.8, Lo: 1, Hi: 5}

	params := spatialcrowd.DefaultParams()
	maps, err := spatialcrowd.NewMAPS(params, 1.8)
	if err != nil {
		log.Fatal(err)
	}

	revenueBefore, revenueAfter := 0.0, 0.0
	for t := 0; t < periods; t++ {
		demand := morning
		if t >= shiftAt {
			demand = festival
		}
		tasks := make([]spatialcrowd.Task, perPeriod)
		for i := range tasks {
			origin := spatialcrowd.Point{X: rng.Float64() * citySide, Y: rng.Float64() * citySide}
			dest := spatialcrowd.Point{X: rng.Float64() * citySide, Y: rng.Float64() * citySide}
			tasks[i] = spatialcrowd.Task{
				ID: t*perPeriod + i, Origin: origin, Dest: dest,
				Distance:  origin.Dist(dest),
				Valuation: demand.Sample(rng),
			}
		}
		workers := make([]spatialcrowd.Worker, 12)
		for i := range workers {
			workers[i] = spatialcrowd.Worker{
				ID:     t*12 + i,
				Loc:    spatialcrowd.Point{X: rng.Float64() * citySide, Y: rng.Float64() * citySide},
				Radius: 15, Duration: 1,
			}
		}

		ctx := spatialcrowd.BuildPeriodContext(grid, t, tasks, workers)
		prices := maps.Prices(ctx)
		accepted := make([]bool, len(tasks))
		served := 0
		for i, task := range tasks {
			accepted[i] = task.Accepts(prices[i])
			// Simplified dispatch: serve accepted tasks while workers last.
			if accepted[i] && served < len(workers) {
				served++
				if t < shiftAt {
					revenueBefore += task.Revenue(prices[i])
				} else {
					revenueAfter += task.Revenue(prices[i])
				}
			}
		}
		maps.Observe(ctx, prices, accepted)
	}

	changes := 0
	avgPrice := func() float64 {
		sum, n := 0.0, 0
		for _, p := range maps.LastPrices {
			if p > 0 { // 0: no orders in the grid in the last period
				sum += p
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for cell := 0; cell < grid.NumCells(); cell++ {
		changes += maps.CellStats(cell).Changes
	}

	fmt.Printf("morning revenue (%d periods): %10.1f\n", shiftAt, revenueBefore)
	fmt.Printf("festival revenue (%d periods): %10.1f\n", periods-shiftAt, revenueAfter)
	fmt.Printf("demand shifts detected across grids: %d\n", changes)
	fmt.Printf("final average grid price: %.2f (morning optimum ~1.8, festival optimum ~3)\n", avgPrice())
	if changes == 0 {
		fmt.Println("warning: change detector never fired - demand shift missed")
	}
}
