// Fooddelivery: batch pricing outside the simulator. A lunch-rush delivery
// platform prices one batch of orders directly through the public API:
// build a PeriodContext from live tasks and couriers, ask MAPS for prices,
// observe the customers' responses, and repeat. This is how a service would
// embed the library in its own dispatch loop.
//
//	go run ./examples/fooddelivery
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spatialcrowd"
	"spatialcrowd/internal/geo"
)

// city is a 6x6 km downtown with 3x3 pricing zones.
var city = spatialcrowd.Grid(geo.SquareGrid(6, 3))

// restaurantRow is the hotspot band where most lunch orders originate.
const restaurantY = 3.0

func main() {
	rng := rand.New(rand.NewSource(11))
	params := spatialcrowd.Params{PMin: 1, PMax: 5, Alpha: 0.5, Eps: 0.2, Delta: 0.01}

	maps, err := spatialcrowd.NewMAPS(params, 2.0)
	if err != nil {
		log.Fatal(err)
	}

	// Hidden customer behaviour: willingness-to-pay per delivery-km is
	// higher near offices (east side) than near campus (west side). The
	// platform never sees these curves - it only observes accept/reject.
	willingness := func(cell int) float64 {
		center := city.CellCenter(cell)
		return 1.6 + 0.35*center.X/2 // east pays more
	}

	totalRevenue := 0.0
	for batch := 0; batch < 60; batch++ {
		tasks := lunchOrders(rng, 12+rng.Intn(8))
		couriers := availableCouriers(rng, 6+rng.Intn(4))

		ctx := spatialcrowd.BuildPeriodContext(city, batch, tasks, couriers)
		prices := maps.Prices(ctx)

		// Customers respond according to their hidden valuations.
		accepted := make([]bool, len(tasks))
		for i := range tasks {
			cell := city.CellOf(tasks[i].Origin)
			v := willingness(cell) + 0.8*rng.NormFloat64()
			accepted[i] = prices[i] <= v
			if accepted[i] {
				totalRevenue += tasks[i].Distance * prices[i] // assume courier found
			}
		}
		maps.Observe(ctx, prices, accepted)
	}

	fmt.Printf("60 lunch batches priced, total revenue %.1f\n\n", totalRevenue)
	fmt.Println("learned zone prices (last batch):")
	for cell, p := range maps.LastPrices {
		if p > 0 { // 0: no orders in the zone in the last batch
			c := city.CellCenter(cell)
			fmt.Printf("  zone %d at (%.0f,%.0f): %.2f per km  (true willingness ~%.2f)\n",
				cell, c.X, c.Y, p, willingness(cell))
		}
	}
}

// lunchOrders places most origins along the restaurant band, destinations
// anywhere in the city.
func lunchOrders(rng *rand.Rand, n int) []spatialcrowd.Task {
	tasks := make([]spatialcrowd.Task, n)
	for i := range tasks {
		origin := spatialcrowd.Point{
			X: rng.Float64() * 6,
			Y: restaurantY + 0.8*rng.NormFloat64(),
		}
		origin = city.Region.Clamp(origin)
		dest := spatialcrowd.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6}
		tasks[i] = spatialcrowd.Task{
			ID: i, Origin: origin, Dest: dest, Distance: origin.Dist(dest),
		}
	}
	return tasks
}

// availableCouriers scatters couriers with a 2 km delivery range.
func availableCouriers(rng *rand.Rand, n int) []spatialcrowd.Worker {
	couriers := make([]spatialcrowd.Worker, n)
	for i := range couriers {
		couriers[i] = spatialcrowd.Worker{
			ID:       i,
			Loc:      spatialcrowd.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6},
			Radius:   2,
			Duration: 1,
		}
	}
	return couriers
}
