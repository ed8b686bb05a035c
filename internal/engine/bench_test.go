package engine

import (
	"math/rand"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// flatPriceStrategy prices every task at a fixed unit price. It isolates the
// shard batch pipeline — pool compaction, worker filtering, index rebuild, graph and
// context construction, greedy assignment, decision emission — from strategy
// cost, so BenchmarkShardBatch measures the engine's own per-window work.
type flatPriceStrategy struct {
	price float64
	buf   []float64
}

func (f *flatPriceStrategy) Name() string { return "flat" }

func (f *flatPriceStrategy) Prices(ctx *core.PeriodContext) []float64 {
	if cap(f.buf) >= len(ctx.Tasks) {
		f.buf = f.buf[:len(ctx.Tasks)]
	} else {
		f.buf = make([]float64, len(ctx.Tasks))
	}
	for i := range f.buf {
		f.buf[i] = f.price
	}
	return f.buf
}

func (f *flatPriceStrategy) Observe(*core.PeriodContext, []float64, []bool) {}

// BenchmarkShardBatch measures one full pricing window through the
// deterministic engine: worker arrivals, task arrivals, and the closing tick
// that builds, prices, matches, and settles the batch. The per-shard scratch
// arenas make the steady-state window allocation-free apart from the
// strategy's price slice and the decision hand-off.
func BenchmarkShardBatch(b *testing.B) {
	const (
		nWorkers = 200
		nTasks   = 400
	)
	grid := geo.SquareGrid(100, 10)
	eng, err := New(Config{
		Grid:       grid,
		Strategy:   &flatPriceStrategy{price: 2},
		AutoDecide: true,
		OnDecision: func(Decision) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(17))
	workers := make([]market.Worker, nWorkers)
	tasks := make([]market.Task, nTasks)
	for i := range workers {
		workers[i] = market.Worker{
			Loc:    geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			Radius: 10, Duration: 1,
		}
	}
	for i := range tasks {
		o := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		d := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		tasks[i] = market.Task{Origin: o, Dest: d, Distance: o.Dist(d), Valuation: 5}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Submit(Tick(i)); err != nil {
			b.Fatal(err)
		}
		base := i * (nWorkers + nTasks)
		for j := range workers {
			w := workers[j]
			w.ID = base + j
			w.Period = i
			if err := eng.Submit(WorkerOnline(w)); err != nil {
				b.Fatal(err)
			}
		}
		for j := range tasks {
			tk := tasks[j]
			tk.ID = base + nWorkers + j
			tk.Period = i
			if err := eng.Submit(TaskArrival(tk)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Close the last window so its batch is settled and counted.
	if err := eng.Submit(Tick(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := eng.Stats()
	if st.TasksPriced == 0 {
		b.Fatal("no tasks priced")
	}
	b.ReportMetric(float64(st.TasksPriced)/float64(b.N), "tasks/batch")
}
