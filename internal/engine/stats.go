package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"spatialcrowd/internal/window"
)

// CacheStats re-exports the window executor's amortization counters so
// engine consumers (stats JSON, metrics) need not import internal/window.
type CacheStats = window.CacheStats

// Stats is a point-in-time snapshot of the engine's aggregate counters.
// Revenue, Accepted, and Served count finalized batches only; quoted batches
// still awaiting requester decisions are not included.
type Stats struct {
	// Events is the number of events accepted by Submit.
	Events int64
	// TasksPriced counts tasks that went through a strategy's Prices call.
	TasksPriced int64
	// Quoted counts price offers emitted in quoted (non-AutoDecide) mode.
	Quoted int64
	// Accepted and Served count requester acceptances and finalized
	// assignments; Revenue is the sum of d_r * p_r over served tasks.
	Accepted int64
	Served   int64
	Revenue  float64
	// ShardRevenue breaks Revenue down by shard (one entry inline).
	ShardRevenue []float64
	// ShardTasks breaks TasksPriced down by shard — the per-shard
	// throughput, which shows how evenly the partitioner spread the market.
	ShardTasks []int64
	// Batches counts closed non-empty pricing batches.
	Batches int64
	// Late counts events that referenced an unknown or already-settled
	// target (duplicate decisions, offlines or moves for unknown workers,
	// duplicate onlines, replies after their batch finalized).
	Late int64
	// Cache aggregates the executors' amortization counters (Config.Amortize);
	// all zero when amortization is off. ShardCache breaks Cache down by
	// shard (one entry in an inline engine). With amortization on, every
	// priced window scores exactly one context hit or miss and one price hit
	// or miss, so CtxHits + CtxMisses == Batches + StrategyErrors — the soak
	// harness asserts it (restore-time rebuilds are deliberately excluded
	// from the deltas shards report).
	Cache      CacheStats
	ShardCache []CacheStats
	// Stages is the wall time the window closes have spent per stage, summed
	// over shards. Like the latency quantiles it is wall-clock and restarts
	// at zero after a restore.
	Stages StageStats
	// StrategyErrors counts pricing batches dropped because the strategy
	// violated the one-price-per-task contract; LastStrategyError is the
	// most recent such error (a typed *window.PriceCountError), nil when
	// none occurred. The batch's tasks go unpriced instead of panicking the
	// shard goroutine.
	StrategyErrors    int64
	LastStrategyError error
	// Lifecycle aggregates the worker-lifecycle counters.
	Lifecycle LifecycleStats
	// P50Latency / P99Latency are online P² quantile estimates of decision
	// latency: the time from the triggering event's Submit to the decision.
	P50Latency time.Duration
	P99Latency time.Duration
	// Elapsed spans engine start to Close (or to now while running);
	// EventsPerSec is Events over Elapsed.
	Elapsed      time.Duration
	EventsPerSec float64
}

// StageStats is cumulative wall time per stage of the window close, over
// Windows priced windows: building the bipartite graph (cache keys
// included), assembling the pricing context, the strategy's Prices, and —
// for immediately resolved windows only — the assignment matching and the
// strategy's Observe.
type StageStats struct {
	Windows int64
	Graph   time.Duration
	Context time.Duration
	Price   time.Duration
	Match   time.Duration
	Observe time.Duration
}

// Add returns the field-wise sum of a and b.
func (a StageStats) Add(b StageStats) StageStats {
	a.Windows += b.Windows
	a.Graph += b.Graph
	a.Context += b.Context
	a.Price += b.Price
	a.Match += b.Match
	a.Observe += b.Observe
	return a
}

// LifecycleStats counts worker-lifecycle transitions (see lifecycle.go).
type LifecycleStats struct {
	// Onlines counts fresh pool admissions; DuplicateOnlines counts online
	// events for an ID a shard still pools (the stale copy is replaced or
	// retired first — no ghost supply — and the event also counts as Late).
	Onlines          int64
	DuplicateOnlines int64
	// Moves counts in-place relocations (the new cell stayed in the same
	// shard); Migrations counts completed cross-shard retire/admit
	// handshakes; PinnedMoves counts cross-shard moves applied in place
	// because a pending quoted batch held the worker.
	Moves       int64
	Migrations  int64
	PinnedMoves int64
	// Retirements by reason.
	RetiredAssigned int64
	RetiredExpired  int64
	RetiredOffline  int64
	// Pooled is the current number of workers across shard pools; Tracked
	// is the router lifecycle-table size and TrackedHeld how many of those
	// entries are quoted-held, both as of the last tick and a tick or two
	// behind the pools. All are bounded by the live population — the soak
	// harness asserts it.
	Pooled      int64
	Tracked     int64
	TrackedHeld int64
}

// Stats snapshots the engine's counters. Safe to call concurrently with
// event processing; batch-grain values are consistent with each other.
func (e *Engine) Stats() Stats {
	s := Stats{
		Events:         e.events.Load(),
		TasksPriced:    e.priced.Load(),
		Quoted:         e.quoted.Load(),
		Batches:        e.batches.Load(),
		Late:           e.late.Load(),
		StrategyErrors: e.stratErrs.Load(),
		Lifecycle: LifecycleStats{
			Onlines:          e.lcOnlines.Load(),
			DuplicateOnlines: e.lcDuplicates.Load(),
			Moves:            e.lcMoves.Load(),
			Migrations:       e.lcMigrations.Load(),
			PinnedMoves:      e.lcPinned.Load(),
			RetiredAssigned:  e.lcAssigned.Load(),
			RetiredExpired:   e.lcExpired.Load(),
			RetiredOffline:   e.lcOffline.Load(),
			Pooled:           e.pooled.Load(),
			Tracked:          e.tracked.Load(),
			TrackedHeld:      e.trackedHeld.Load(),
		},
	}
	e.stratErrMu.Lock()
	s.LastStrategyError = e.lastStratErr
	e.stratErrMu.Unlock()
	e.aggMu.Lock()
	s.Accepted = e.accepted
	s.Served = e.served
	s.ShardRevenue = append([]float64(nil), e.shardRevenue...)
	s.ShardTasks = append([]int64(nil), e.shardTasks...)
	// Revenue restored onto a different shard layout loses per-shard
	// attribution; the carried total keeps Revenue exact (checkpoint.go).
	s.Revenue = e.carriedRevenue
	s.ShardCache = append([]CacheStats(nil), e.shardCache...)
	s.Cache = e.carriedCache
	for _, st := range e.shardStages {
		s.Stages = s.Stages.Add(st)
	}
	e.aggMu.Unlock()
	for _, r := range s.ShardRevenue {
		s.Revenue += r
	}
	for _, c := range s.ShardCache {
		s.Cache = s.Cache.Add(c)
	}

	e.latMu.Lock()
	if p := e.p50.Quantile(); !math.IsNaN(p) {
		s.P50Latency = time.Duration(p)
	}
	if p := e.p99.Quantile(); !math.IsNaN(p) {
		s.P99Latency = time.Duration(p)
	}
	e.latMu.Unlock()

	end := time.Now() //lint:detsource wall-clock elapsed/throughput metrics only
	if ns := e.stoppedNanos.Load(); ns != 0 {
		end = time.Unix(0, ns)
	}
	s.Elapsed = end.Sub(e.started)
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.EventsPerSec = float64(s.Events) / secs
	}
	return s
}

// String renders the snapshot as a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events      %d (%.0f/s over %v)\n", s.Events, s.EventsPerSec, s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "batches     %d (window-closed, non-empty)\n", s.Batches)
	fmt.Fprintf(&b, "tasks       %d priced, %d quoted, %d accepted, %d served\n",
		s.TasksPriced, s.Quoted, s.Accepted, s.Served)
	fmt.Fprintf(&b, "revenue     %.2f\n", s.Revenue)
	if len(s.ShardRevenue) > 1 {
		fmt.Fprintf(&b, "per-shard   ")
		for i, r := range s.ShardRevenue {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "s%d=%.1f", i, r)
			if i < len(s.ShardTasks) {
				fmt.Fprintf(&b, "/%dt", s.ShardTasks[i])
			}
		}
		b.WriteString("\n")
	}
	if c := s.Cache; c != (CacheStats{}) {
		fmt.Fprintf(&b, "cache       ctx %d/%d hit, price %d/%d hit, %d worker-index builds\n",
			c.CtxHits, c.CtxHits+c.CtxMisses, c.PriceHits, c.PriceHits+c.PriceMisses,
			c.KDRebuilds)
	}
	if st := s.Stages; st.Windows > 0 {
		fmt.Fprintf(&b, "stages      %d windows: graph %v, context %v, price %v, match %v, observe %v\n",
			st.Windows, st.Graph.Round(time.Microsecond), st.Context.Round(time.Microsecond),
			st.Price.Round(time.Microsecond), st.Match.Round(time.Microsecond), st.Observe.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "latency     p50=%v p99=%v\n", s.P50Latency.Round(time.Microsecond), s.P99Latency.Round(time.Microsecond))
	lc := s.Lifecycle
	fmt.Fprintf(&b, "workers     %d online (%d pooled now), %d assigned, %d expired, %d offline\n",
		lc.Onlines, lc.Pooled, lc.RetiredAssigned, lc.RetiredExpired, lc.RetiredOffline)
	if lc.Moves+lc.Migrations+lc.PinnedMoves+lc.DuplicateOnlines > 0 {
		fmt.Fprintf(&b, "mobility    %d moves, %d migrations, %d pinned, %d duplicate onlines\n",
			lc.Moves, lc.Migrations, lc.PinnedMoves, lc.DuplicateOnlines)
	}
	if s.Late > 0 {
		fmt.Fprintf(&b, "late        %d\n", s.Late)
	}
	if s.StrategyErrors > 0 {
		fmt.Fprintf(&b, "strategy    %d dropped batches (last: %v)\n", s.StrategyErrors, s.LastStrategyError)
	}
	return b.String()
}
