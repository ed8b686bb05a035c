// Operations: the production affordances around MAPS — simulation tracing,
// strategy state persistence across a "deployment restart", and idle-worker
// repositioning toward surge prices.
//
//	go run ./examples/operations
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"spatialcrowd"
)

func main() {
	instance, model, err := spatialcrowd.Synthetic(spatialcrowd.SyntheticConfig{
		Workers:        800,
		Requests:       6000,
		Periods:        150,
		GridSide:       6,
		WorkerDuration: 5, // drivers idle up to 5 minutes: repositioning matters
		Seed:           17,
	})
	if err != nil {
		log.Fatal(err)
	}

	params := spatialcrowd.DefaultParams()
	base, err := spatialcrowd.NewBaseP(params)
	if err != nil {
		log.Fatal(err)
	}
	if err := base.Calibrate(spatialcrowd.OracleFromModel(model, 1),
		instance.Grid.NumCells(), 0); err != nil {
		log.Fatal(err)
	}

	// --- Day 1: run with tracing on, then persist the learned state.
	day1, err := spatialcrowd.NewMAPS(params, base.BasePrice())
	if err != nil {
		log.Fatal(err)
	}
	base.WarmStart(day1.CellStats)
	day1.Smoothing = 0.2

	cfg := spatialcrowd.DefaultSimConfig()
	cfg.Trace = true
	cfg.RepositionSpeed = 3

	res, err := spatialcrowd.Run(instance, day1, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 1: revenue %.0f, served %d/%d accepted\n",
		res.Revenue, res.Served, res.Accepted)
	fmt.Printf("       offered price median %.2f, p90 %.2f\n", res.PriceMedian, res.PriceP90)

	// A compact view of the trace: revenue by quarter of the day.
	quarter := len(res.Trace) / 4
	for q := 0; q < 4; q++ {
		sum := 0.0
		for _, p := range res.Trace[q*quarter : (q+1)*quarter] {
			sum += p.Revenue
		}
		fmt.Printf("       quarter %d revenue: %8.0f\n", q+1, sum)
	}

	// StrategyState is the one serialized form of learned state — the same
	// snapshot the engine's checkpoints carry — and travels as JSON.
	state, err := day1.SnapshotState()
	if err != nil {
		log.Fatal(err)
	}
	checkpoint, err := json.Marshal(state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d bytes of learned demand statistics\n", len(checkpoint))

	// --- Day 2: a fresh process restores the state and keeps earning
	// without re-calibrating.
	day2, err := spatialcrowd.NewMAPS(params, 1) // deliberately wrong base price
	if err != nil {
		log.Fatal(err)
	}
	var restored spatialcrowd.StrategyState
	if err := json.Unmarshal(checkpoint, &restored); err != nil {
		log.Fatal(err)
	}
	if err := day2.RestoreState(restored); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored: base price %.3f, smoothing %.2f\n", day2.BasePrice(), day2.Smoothing)

	res2, err := spatialcrowd.Run(instance, day2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 2: revenue %.0f (%.1f%% of day 1, zero calibration probes)\n",
		res2.Revenue, 100*res2.Revenue/res.Revenue)
}
