// Ridehailing: the paper's motivating scenario — rush hour in a big city,
// where demand drastically exceeds driver supply in hotspot districts.
// Runs the Beijing-like dataset #1 (5pm-7pm) and shows how MAPS surges
// prices in under-supplied grids while the unified base price leaves
// revenue on the table.
//
//	go run ./examples/ridehailing
package main

import (
	"fmt"
	"log"
	"sort"

	"spatialcrowd"
)

func main() {
	// Beijing-like rush hour at 1/20 the published population (fast to run;
	// use Scale: 1 for the full Table 4 sizes).
	instance, model, err := spatialcrowd.BeijingLike(spatialcrowd.BeijingConfig{
		Variant:        spatialcrowd.BeijingRush,
		WorkerDuration: 10, // drivers stay for 10 minutes unless matched
		Scale:          20,
		Seed:           3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rush hour: %d drivers vs %d requests over %d minutes (%.1fx demand)\n",
		len(instance.Workers), len(instance.Tasks), instance.Periods,
		float64(len(instance.Tasks))/float64(len(instance.Workers)))

	params := spatialcrowd.DefaultParams()
	base, err := spatialcrowd.NewBaseP(params)
	if err != nil {
		log.Fatal(err)
	}
	if err := base.Calibrate(spatialcrowd.OracleFromModel(model, 1),
		instance.Grid.NumCells(), 300); err != nil {
		log.Fatal(err)
	}

	maps, err := spatialcrowd.NewMAPS(params, base.BasePrice())
	if err != nil {
		log.Fatal(err)
	}
	base.WarmStart(maps.CellStats)
	sde, err := spatialcrowd.NewSDE(params, base.BasePrice())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-6s %12s %10s %8s\n", "policy", "revenue", "served", "avg $/km")
	for _, strat := range []spatialcrowd.Strategy{maps, base, sde} {
		res, err := spatialcrowd.Run(instance, strat, spatialcrowd.DefaultSimConfig())
		if err != nil {
			log.Fatal(err)
		}
		perServed := 0.0
		if res.Served > 0 {
			perServed = res.Revenue / float64(res.Served)
		}
		fmt.Printf("%-6s %12.1f %10d %8.2f\n", res.Strategy, res.Revenue, res.Served, perServed)
	}

	// Peek at MAPS's final per-grid surge map: the last period's prices,
	// highest first (equal prices by grid id). Hotspot grids (scarce supply)
	// carry the premium. LastPrices is indexed by grid; 0 means unpriced.
	fmt.Println("\nMAPS per-grid prices in the last priced period (top 8):")
	var priced []int
	for cell, p := range maps.LastPrices {
		if p > 0 {
			priced = append(priced, cell)
		}
	}
	sort.Slice(priced, func(i, j int) bool {
		pi, pj := maps.LastPrices[priced[i]], maps.LastPrices[priced[j]]
		return pi > pj || pi == pj && priced[i] < priced[j]
	})
	for i, cell := range priced {
		if i >= 8 {
			break
		}
		c := instance.Grid.CellCenter(cell)
		fmt.Printf("  grid %2d at (%.1f, %.1f) km: %.2f per km (supply %d)\n",
			cell, c.X, c.Y, maps.LastPrices[cell], maps.LastSupply[cell])
	}
}
