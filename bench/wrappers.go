package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spatialcrowd/bench/trace"
	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/wal"
)

// The traced run measures layers from outside, by wrapping the public
// interfaces the engine is configured with. Each wrapper forwards every call
// unchanged; the transparency test holds traced and untraced revenue equal.

// cacheableSnapshotter is what the engine probes a strategy for beyond
// core.Strategy: the executor's price cache and the checkpoint writer. MAPS
// has both; the wrapper must keep offering them or the engine would take
// different paths with tracing on.
type cacheableSnapshotter interface {
	core.Strategy
	core.PriceCacheable
	core.StateSnapshotter
}

// windowSample is one window copied out of a strategy call, enough to re-run
// the platform-side stages (graph, context, matching) on it afterwards.
type windowSample struct {
	period   int
	tasks    []market.Task
	workers  []market.Worker
	prices   []float64
	accepted []bool
	edges    int
	// prevWorkers is the batch worker set of the window before, kept when
	// the engine maintains its k-d index incrementally: the graph stage is
	// then re-run as the update from that set to this one.
	prevWorkers []market.Worker
}

// tracedStrategy times Prices and Observe as spans on its shard's lane and
// copies out every sampleEvery-th window.
type tracedStrategy struct {
	cacheableSnapshotter
	rec         *trace.Recorder
	lane        string
	sampleEvery int
	keepPrev    bool
	prev        []market.Worker

	windows int
	samples []windowSample
	// priceStart is when the open window's Prices call began: the earliest
	// moment of a sharded window close the benchmark can see.
	priceStart map[int]int64
}

func newTracedStrategy(s core.Strategy, rec *trace.Recorder, lane string, sampleEvery int, keepPrev bool) (*tracedStrategy, error) {
	inner, ok := s.(cacheableSnapshotter)
	if !ok {
		return nil, fmt.Errorf("bench: strategy %s lacks PriceCacheable or StateSnapshotter; the tracing wrapper would hide that from the engine", s.Name())
	}
	return &tracedStrategy{cacheableSnapshotter: inner, rec: rec, lane: lane, sampleEvery: sampleEvery,
		keepPrev: keepPrev, priceStart: map[int]int64{}}, nil
}

func (t *tracedStrategy) Prices(ctx *core.PeriodContext) []float64 {
	start := t.rec.Now()
	p := t.cacheableSnapshotter.Prices(ctx)
	t.rec.Add(trace.Span{Name: "core.price", Lane: t.lane, ID: ctx.Period + 1, Parent: "window.close", Start: start, End: t.rec.Now()})
	t.priceStart[ctx.Period] = start
	return p
}

func (t *tracedStrategy) Observe(ctx *core.PeriodContext, prices []float64, accepted []bool) {
	start := t.rec.Now()
	t.cacheableSnapshotter.Observe(ctx, prices, accepted)
	t.rec.Add(trace.Span{Name: "core.observe", Lane: t.lane, ID: ctx.Period + 1, Parent: "window.close", Start: start, End: t.rec.Now()})
	t.windows++
	switch t.windows % t.sampleEvery {
	case t.sampleEvery - 1:
		if t.keepPrev {
			t.prev = append(t.prev[:0], ctx.Workers...)
		}
	case 0:
		ws := copyWindow(ctx, prices, accepted)
		if t.keepPrev {
			ws.prevWorkers = append([]market.Worker(nil), t.prev...)
		}
		t.samples = append(t.samples, ws)
	}
}

// copyWindow rebuilds raw tasks from the strategy-visible views. The hidden
// valuation does not cross that API; the accept flags do, and re-running the
// matching needs nothing else.
func copyWindow(ctx *core.PeriodContext, prices []float64, accepted []bool) windowSample {
	ws := windowSample{period: ctx.Period, edges: ctx.Graph.NumEdges(),
		tasks:    make([]market.Task, len(ctx.Tasks)),
		workers:  append([]market.Worker(nil), ctx.Workers...),
		prices:   append([]float64(nil), prices...),
		accepted: append([]bool(nil), accepted...)}
	for i, tv := range ctx.Tasks {
		ws.tasks[i] = market.Task{ID: tv.ID, Period: ctx.Period, Origin: tv.Origin, Dest: tv.Dest, Distance: tv.Distance}
	}
	return ws
}

// timingStore wraps a wal.Store so that every segment write and fsync is
// timed: the log under engine.Config.WAL writes through it.
type timingStore struct {
	wal.Store
	rec  *trace.Recorder
	mu   sync.Mutex
	cur  int // chunk being submitted; spans carry it as ID
	wrNS int64
	wrN  int64
	wrB  int64
	sync []int64 // fsync durations, ns
}

func (s *timingStore) Create(name string) (wal.File, error) {
	f, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, st: s}, nil
}

func (s *timingStore) Open(name string) (wal.File, error) {
	f, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, st: s}, nil
}

type timingFile struct {
	wal.File
	st *timingStore
}

// Write is called once per appended record, so it only accumulates; a span
// per record would cost more than the write.
func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := int64(time.Since(t0))
	f.st.mu.Lock()
	f.st.wrNS += d
	f.st.wrN++
	f.st.wrB += int64(n)
	f.st.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	start := f.st.rec.Now()
	err := f.File.Sync()
	end := f.st.rec.Now()
	f.st.mu.Lock()
	f.st.sync = append(f.st.sync, end-start)
	id := f.st.cur
	f.st.mu.Unlock()
	f.st.rec.Add(trace.Span{Name: "wal.fsync", Lane: "submit", ID: id, Parent: "engine.submit", Start: start, End: end})
	return err
}

// countingSpace wraps a spatial.Space to count the calls the engine makes
// and to time one call in timeEvery, which keeps the wrapper's own cost a
// small share of a cell lookup.
type countingSpace struct {
	spatial.Space
	cellOf, cellOfTimed, cellOfNS atomic.Int64
	rng, rngTimed, rngNS          atomic.Int64
	dist                          atomic.Int64
}

const timeEvery = 32

func (c *countingSpace) CellOf(p geo.Point) int {
	if n := c.cellOf.Add(1); n%timeEvery != 0 {
		return c.Space.CellOf(p)
	}
	t0 := time.Now()
	cell := c.Space.CellOf(p)
	c.cellOfNS.Add(int64(time.Since(t0)))
	c.cellOfTimed.Add(1)
	return cell
}

func (c *countingSpace) CellsInRangeAppend(center geo.Point, r float64, out []int) []int {
	if n := c.rng.Add(1); n%timeEvery != 0 {
		return c.Space.CellsInRangeAppend(center, r, out)
	}
	t0 := time.Now()
	out = c.Space.CellsInRangeAppend(center, r, out)
	c.rngNS.Add(int64(time.Since(t0)))
	c.rngTimed.Add(1)
	return out
}

func (c *countingSpace) CellsInRange(center geo.Point, r float64) []int {
	return c.CellsInRangeAppend(center, r, nil)
}

func (c *countingSpace) Dist(a, b geo.Point) float64 {
	c.dist.Add(1)
	return c.Space.Dist(a, b)
}

// Name keeps the wrapped backend's name, so the engine's banners and
// partition fingerprints see the same space.
func (c *countingSpace) Name() string { return spatial.BackendName(c.Space) }
