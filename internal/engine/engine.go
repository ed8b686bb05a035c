// Package engine is the real-time streaming dispatch engine: the online
// analogue of the offline period simulator in internal/sim. It ingests a
// stream of task-arrival, worker-online/offline, accept-decision, and clock
// events, shards per-cell market state across goroutine-owned shards
// (channel-in/channel-out — no shared locks on the event path), closes a
// pricing batch every configurable window of periods, prices each batch with
// any core.Strategy via core.BuildContext, and assigns accepting tasks with
// single augmenting paths (match.Incremental) over a worker-index candidate
// graph instead of recomputing a matching from scratch.
//
// One topology, two drivers. Every engine is a router, which owns the worker
// lifecycle table and the quote routes, in front of max(Shards, 1) shards,
// each owning the cells a spatial.Partitioner assigns it:
//
//   - Inline (Config.Shards == 0): no goroutines and no channels; Submit
//     runs the router and its one shard in the caller's goroutine. With
//     AutoDecide set it reproduces sim.Run on a replayed instance — same
//     batch construction, same pricing contexts, and the same assignment
//     values (match.MaxWeightByLeft is the greedy augmentation the engine
//     performs incrementally).
//   - Goroutines (Config.Shards >= 1): router and shards run on their own
//     goroutines joined by bounded channels, and shards price their
//     sub-markets independently — the sharding approximation: a worker
//     serves only tasks of its own shard's cells.
//
// No count depends on how far the router's worker table lags the shards
// (see lifecycle.go), so a ledger depends on the event stream alone, never
// on scheduling, and an inline engine equals a one-shard one.
//
// With AutoDecide disabled the engine quotes prices and waits for
// AcceptDecision events: accepting tasks are matched first-come-first-served
// by one augmentation each, workers that go offline mid-batch are repaired
// around with match.Incremental.RemoveRight, and the batch finalizes at the
// next window close with unanswered quotes counting as rejections.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/stats"
	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/window"
)

const defaultBuffer = 4096

// Config parameterizes an Engine.
type Config struct {
	// Grid partitions the region into the cells that shard the market and
	// group tasks for pricing. Used when Space is nil; a non-empty Grid or a
	// Space is required.
	Grid geo.Grid
	// Space, when set, overrides Grid with an arbitrary spatial backend
	// (e.g. spatial.RoadSpace); cells are the backend's cells.
	Space spatial.Space
	// Partitioner maps cells to shards. Nil selects
	// spatial.ModPartition(Shards), the engine's historical cell-mod-shards
	// assignment. When set, Partitioner.Shards() must equal Shards. An
	// inline engine has one shard and ignores it.
	Partitioner spatial.Partitioner
	// Window is how many periods one pricing batch spans (default 1 — the
	// streaming analogue of the paper's per-period batch mode).
	Window int
	// Shards is the number of shard goroutines. 0 runs one shard inline:
	// Submit processes events in the caller's goroutine and every call
	// sequence produces identical results.
	Shards int
	// Strategy prices batches when there is one shard (Shards 0 or 1).
	Strategy core.Strategy
	// NewStrategy builds one private strategy per shard; required when
	// Shards > 1 because strategies are not concurrency-safe.
	NewStrategy func(shard int) core.Strategy
	// AutoDecide resolves requester decisions at batch close from the
	// tasks' private valuations (simulation replay). When false the engine
	// emits Quoted decisions and waits for AcceptDecision events.
	AutoDecide bool
	// CellIndexGraphs builds batch bipartite graphs with the spatial cell
	// index (market.BuildBipartiteCellIndexScratch — the offline simulator's
	// construction) instead of the per-batch worker index
	// (market.WorkerIndex). The edge sets are identical either way; the
	// adjacency order differs, which steers tie breaks in the greedy
	// matching. With CellIndexGraphs a deterministic AutoDecide replay
	// consumes exactly the workers sim.Run consumes, so replayed revenue
	// matches the simulator bit for bit (the equivalence tests rely on
	// this); the worker-index default is faster on large pools.
	CellIndexGraphs bool
	// Buffer bounds, in events, what the router holds undispatched and what
	// each shard channel queues (default 4096).
	Buffer int
	// OnDecision, when set, receives every decision instead of the Poll
	// queue. It is called from shard goroutines and must be fast and
	// concurrency-safe.
	OnDecision func(Decision)
	// WAL, when set, is the engine's durable write-ahead event log: every
	// accepted public event is appended (and, per the log's sync policy,
	// fsynced) before it is applied, so a crash loses nothing past the
	// log's durable prefix. Attach a freshly opened wal.Log; if it already
	// holds records, call RecoverWAL before submitting — Submit refuses to
	// append after un-replayed history. Checkpoint records the covered LSN
	// (and appends a marker record), making recovery = Restore + tail
	// replay. See internal/wal and wal.go in this package.
	WAL *wal.Log
	// Amortize enables the executors' fingerprint-gated amortized-rebuild
	// layer: pricing contexts, batch graphs, and (for core.PriceCacheable
	// strategies) price vectors are reused across consecutive windows whose
	// inputs fingerprint identically. Cached windows are bit-identical to
	// fresh ones — revenue and the decision stream do not change.
	Amortize bool
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// ErrBusy is returned by TrySubmit and TrySubmitBatch when the router's
// event budget is spent. Events past the reported count were NOT accepted;
// the caller decides whether to retry, shed the
// load, or push the backpressure further upstream (the HTTP server in
// internal/server turns it into 429 + Retry-After).
var ErrBusy = errors.New("engine: ingest queue full")

// ErrWAL wraps every failure of the attached write-ahead log — an append a
// full or failing disk refused, or an fsync that did not complete. The
// events are not the caller's fault; the log is poisoned and the engine
// needs a restart and RecoverWAL. The store's own error stays in the chain.
var ErrWAL = errors.New("engine: wal unavailable")

// Engine is a streaming dispatch engine. Create it with New; feed it with
// Submit; read decisions with Poll or Config.OnDecision; stop it with Close.
// Submit must not be called concurrently with Close.
type Engine struct {
	cfg   Config
	space spatial.Space       // resolved backend (cfg.Space or cfg.Grid)
	part  spatial.Partitioner // resolved cell -> shard map

	in     chan Event // router input; nil when the engine runs inline
	shards []*shard
	wg     sync.WaitGroup // router and shard goroutines

	// Router-owned routing state. Quoted-task entries live in a
	// two-generation rotation (rotated every two windows, by which time
	// their batch has certainly finalized) so quote routes cannot
	// accumulate forever. Worker entries live in the lifecycle table and
	// are erased when shards report retirements through the note mailbox,
	// so both structures stay bounded by the live population.
	taskShardCur  map[int]int // quoted task ID -> shard (current generation)
	taskShardPrev map[int]int // previous generation
	taskRotated   int         // period of the last generation rotation
	workers       *workerTable
	routerPeriod  int // last tick period the router broadcast

	notesMu    sync.Mutex
	notes      []lifecycleNote // shard-reported pool transitions, pending application
	notesSpare []lifecycleNote // router-owned: the last applied buffer, reused as the next

	// Hot counters (atomic; bumped from shard goroutines).
	events  atomic.Int64
	priced  atomic.Int64
	quoted  atomic.Int64
	batches atomic.Int64
	late    atomic.Int64 // decisions/offlines for unknown or settled targets

	// Strategy-contract violations (malformed price vectors): the batch is
	// dropped and the typed error surfaced through Stats.
	stratErrs    atomic.Int64
	stratErrMu   sync.Mutex
	lastStratErr error

	// Lifecycle counters (atomic; see LifecycleStats). pooled is a gauge of
	// workers currently in shard pools; tracked mirrors the router table
	// size at every tick so Stats can read it without touching router-owned
	// state.
	lcOnlines    atomic.Int64
	lcDuplicates atomic.Int64
	lcMoves      atomic.Int64
	lcPinned     atomic.Int64
	lcMigrations atomic.Int64
	lcAssigned   atomic.Int64
	lcExpired    atomic.Int64
	lcOffline    atomic.Int64
	pooled       atomic.Int64
	tracked      atomic.Int64
	trackedHeld  atomic.Int64

	// Batch-grain aggregates. Revenue is kept per shard only (each shard
	// accumulates its own batches in a deterministic order) and totaled in
	// shard-index order at snapshot time, so the float sum is independent
	// of goroutine scheduling. The carried values cover state restored onto
	// a different shard layout, where per-shard attribution is lost (see
	// checkpoint.go).
	aggMu          sync.Mutex
	accepted       int64
	served         int64
	shardRevenue   []float64
	shardTasks     []int64 // tasks priced per shard (per-shard throughput)
	carriedRevenue float64
	// Cache counters mirror the revenue discipline: per-shard deltas folded
	// in at batch grain, plus a carried aggregate restored from checkpoints
	// taken under a different shard layout.
	shardCache   []window.CacheStats
	carriedCache window.CacheStats
	shardStages  []StageStats // per-shard window-close stage times (metrics only)

	// Checkpoint restore bookkeeping (written before any event, read-only
	// afterwards).
	restored       bool
	restoredPeriod int
	restoredWALLSN uint64 // checkpoint's recorded WAL position (wal_lsn)

	// Ingest (batch.go). mu serializes admission with either driver: budget,
	// WAL append and apply happen under it, so the log order is the apply
	// order, two submitters cannot spend the same budget, and an inline
	// engine's processing is safe for concurrent callers. walReady
	// (guarded by mu) refuses submissions until a non-empty log has been
	// replayed through RecoverWAL. batchPending counts events admitted into
	// envelopes the router has not finished dispatching — the budget's
	// measure of what is buffered. batchPool recycles envelope slices so a
	// steady ingest stream allocates no per-batch memory. walBuf and
	// walRecs (guarded by mu) hold a chunk's WAL payloads: its events
	// encoded back to back, and walBuf cut into one slice per event.
	mu           sync.Mutex
	wal          *wal.Log
	walReady     bool
	walBuf       []byte
	walRecs      [][]byte
	batchPending atomic.Int64
	batchPool    sync.Pool

	latMu sync.Mutex
	p50   *stats.PSquare
	p99   *stats.PSquare

	outMu sync.Mutex
	out   []Decision

	started      time.Time
	stoppedNanos atomic.Int64 // 0 while running
	closed       atomic.Bool
}

// New validates the configuration and builds the engine: a router and
// max(Shards, 1) shards, started on their own goroutines unless Shards is 0.
func New(cfg Config) (*Engine, error) {
	space := cfg.Space
	if space == nil {
		if cfg.Grid.Cols <= 0 || cfg.Grid.Rows <= 0 {
			return nil, fmt.Errorf("engine: Config needs a Space or a non-empty Grid")
		}
		space = cfg.Grid
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = defaultBuffer
	}
	cfg.Shards = max(cfg.Shards, 0)
	newStrat := cfg.NewStrategy
	if newStrat == nil {
		if cfg.Strategy == nil {
			return nil, fmt.Errorf("engine: Config needs Strategy or NewStrategy")
		}
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("engine: %d shards need a NewStrategy factory (strategies are not concurrency-safe)", cfg.Shards)
		}
		newStrat = func(int) core.Strategy { return cfg.Strategy }
	}

	e := &Engine{cfg: cfg, space: space, started: time.Now()} //lint:detsource process start time feeds throughput metrics only
	e.p50, _ = stats.NewPSquare(0.5)
	e.p99, _ = stats.NewPSquare(0.99)
	if cfg.WAL != nil {
		e.wal = cfg.WAL
		// An empty log needs no recovery; one with history must be replayed
		// (RecoverWAL) before new appends may extend it.
		e.walReady = e.wal.LastLSN() == 0
	}

	n := max(cfg.Shards, 1)
	e.part = spatial.ModPartition(n)
	if cfg.Partitioner != nil && cfg.Shards > 0 {
		e.part = cfg.Partitioner
	}
	if e.part.Shards() != n {
		return nil, fmt.Errorf("engine: Partitioner built for %d shards, Config.Shards is %d",
			e.part.Shards(), n)
	}
	// A partitioner answering outside [0, Shards) would index shards out of
	// range (or silently strand cells); probe every cell once up front.
	for c := 0; c < space.NumCells(); c++ {
		if si := e.part.ShardOf(c); si < 0 || si >= n {
			return nil, fmt.Errorf("engine: Partitioner maps cell %d to shard %d, outside [0,%d)",
				c, si, n)
		}
	}
	e.shardRevenue = make([]float64, n)
	e.shardTasks = make([]int64, n)
	e.shardCache = make([]window.CacheStats, n)
	e.shardStages = make([]StageStats, n)
	e.taskShardCur = make(map[int]int)
	e.taskShardPrev = make(map[int]int)
	e.workers = newWorkerTable()
	// Start below any real period so worker admissions before the first
	// tick sort strictly earlier than any note a shard can emit (notes
	// flush at ticks).
	e.routerPeriod = math.MinInt
	// Construct every shard before starting any goroutine so a failing
	// factory cannot leak goroutines blocked on never-closed channels.
	for i := 0; i < n; i++ {
		s := newShard(i, e, newStrat(i))
		if s.strat == nil {
			return nil, fmt.Errorf("engine: NewStrategy(%d) returned nil", i)
		}
		e.shards = append(e.shards, s)
	}
	if cfg.Shards == 0 {
		return e, nil
	}
	e.in = make(chan Event, cfg.Buffer)
	e.wg.Add(1 + n)
	for _, s := range e.shards {
		s.in = make(chan Event, cfg.Buffer)
		go s.run()
	}
	go e.route()
	return e, nil
}

// Space reports the spatial backend the engine partitions the market with.
func (e *Engine) Space() spatial.Space { return e.space }

// Window reports the pricing window in periods.
func (e *Engine) Window() int { return e.cfg.Window }

// QueueDepths is a point-in-time snapshot of the engine's bounded ingest
// queues: the router's admitted-event budget plus every shard channel. Depth
// counts buffered-but-unprocessed events; Capacity is the fixed buffer size
// (Config.Buffer). All zeros, Capacity included, when the engine runs
// inline: events process in the caller's goroutine and nothing queues.
type QueueDepths struct {
	Router    int   // events admitted that the router has not finished dispatching
	Shards    []int // events waiting per shard channel (nil inline)
	Capacity  int   // router event budget and per-shard channel size
	MaxShard  int   // deepest shard queue (0 inline)
	Saturated bool  // the router budget is spent: TrySubmit would return ErrBusy
}

// QueueDepths snapshots the ingest-queue depths. Safe to call concurrently
// with event processing; the values are instantaneous and advisory (they can
// change before the caller acts on them) — exactly what admission control
// and metrics need.
func (e *Engine) QueueDepths() QueueDepths {
	if e.in == nil {
		return QueueDepths{}
	}
	d := QueueDepths{
		Router:   int(e.batchPending.Load()),
		Capacity: cap(e.in),
		Shards:   make([]int, len(e.shards)),
	}
	for i, s := range e.shards {
		n := len(s.in)
		d.Shards[i] = n
		if n > d.MaxShard {
			d.MaxShard = n
		}
	}
	d.Saturated = d.Router >= d.Capacity
	return d
}

// DefaultShards picks a shard count for an engine over a space with the
// given cell count when the operator did not choose one:
// min(GOMAXPROCS, cells), floored at 1. A shard with no cells would idle, so
// a space without cells (cells <= 0) gets exactly one shard on any host.
// The inline engine (Shards == 0) is never selected implicitly.
func DefaultShards(cells int) int {
	return max(1, min(runtime.GOMAXPROCS(0), cells))
}

// route is the router goroutine: it owns the task map and the worker
// lifecycle table and forwards each event to the shard owning its cell.
// Ticks broadcast.
func (e *Engine) route() {
	defer e.wg.Done()
	for ev := range e.in {
		if ev.Kind == kindBatch {
			e.dispatchBatch(ev)
			continue
		}
		e.dispatch(ev)
	}
	for _, s := range e.shards {
		close(s.in)
	}
}

// control hands the router a checkpoint or restore request: behind every
// event submitted before it on the router's FIFO, or inline.
func (e *Engine) control(ev Event) {
	if e.in == nil {
		e.dispatch(ev)
		return
	}
	e.in <- ev
}

// dispatch forwards one event to the shard(s) owning it (router only: its
// goroutine, or the submitter under e.mu when the engine runs inline).
func (e *Engine) dispatch(ev Event) {
	switch ev.Kind {
	case KindTick:
		if ev.Period > e.routerPeriod {
			e.routerPeriod = ev.Period
		}
		e.pruneRoutes(ev.Period)
		for _, s := range e.shards {
			s.send(ev)
		}
	case KindTaskArrival:
		si := e.part.ShardOf(e.space.CellOf(ev.Task.Origin))
		if !e.cfg.AutoDecide {
			e.taskShardCur[ev.Task.ID] = si
		}
		e.shards[si].send(ev)
	case KindWorkerOnline:
		si := e.part.ShardOf(e.space.CellOf(ev.Worker.Loc))
		// A duplicate online attributed to another shard retires the stale
		// copy there before the fresh one is admitted, so no ghost supply
		// survives; a same-shard duplicate is replaced in place. The shard
		// that still pools a copy counts the duplicate: the table cannot
		// tell, it learns of retirements a tick or two late.
		if prev, dup := e.workers.online(ev.Worker.ID, si, e.routerPeriod); dup && prev.shard != si {
			e.shards[prev.shard].send(Event{Kind: kindEvict, WorkerID: ev.Worker.ID, at: ev.at})
		}
		e.shards[si].send(ev)
	case KindWorkerOffline:
		if ent, ok := e.workers.get(ev.WorkerID); ok {
			e.workers.retire(ev.WorkerID)
			e.shards[ent.shard].send(ev)
		} else {
			e.late.Add(1)
		}
	case KindWorkerMove:
		e.routeMove(ev)
	case KindAcceptDecision:
		// A route lives until its generation rotates out; the shard holding
		// the batch judges the reply (early, repeated, or after its batch).
		si, ok := e.taskShardCur[ev.TaskID]
		if !ok {
			si, ok = e.taskShardPrev[ev.TaskID]
		}
		if ok {
			e.shards[si].send(ev)
		} else {
			e.late.Add(1)
		}
	case kindCheckpoint:
		e.routerCheckpoint(ev.ctl.(*ctlCheckpoint))
	case kindRestore:
		e.routerRestore(ev.ctl.(*ctlRestore))
	}
}

// routeMove resolves a worker relocation. A move inside the owning shard is
// forwarded as-is (the shard updates the pool entry in place). A move whose
// target cell belongs to a different shard runs the migration handshake:
// the router sends a synchronous migrate-out to the old shard and waits for
// the worker record, then admits it into the new shard — so at every point
// in the event order the worker is pooled in at most one shard, and no
// later event can observe a half-finished migration. The old shard answers
// pinned (and applies the move in place) when a pending quoted batch still
// references the worker: a provisional assignment must not be yanked out
// from under its batch, so the worker migrates only after the batch
// finalizes and a later move re-targets it.
func (e *Engine) routeMove(ev Event) {
	ent, ok := e.workers.get(ev.WorkerID)
	if !ok {
		e.late.Add(1)
		return
	}
	si := e.part.ShardOf(e.space.CellOf(ev.Loc))
	if si == ent.shard {
		e.shards[ent.shard].send(ev)
		return
	}
	mev := ev
	mev.mig = &migration{reply: make(chan migrateReply, 1)}
	e.shards[ent.shard].send(mev)
	rep := <-mev.mig.reply
	switch {
	case !rep.ok:
		// The old shard no longer pools the worker (consumed or expired,
		// retirement note still in flight): the move targets a settled
		// worker. Drop the stale table entry rather than waiting for the
		// note.
		e.workers.retire(ev.WorkerID)
		e.late.Add(1)
	case rep.pinned:
		e.lcPinned.Add(1)
	default:
		e.workers.migrate(ev.WorkerID, si, e.routerPeriod)
		e.lcMigrations.Add(1)
		e.shards[si].send(Event{Kind: kindAdmit, Worker: rep.worker, at: ev.at})
	}
}

// pruneRoutes bounds the router's maps. Quoted-task generations rotate
// every two windows: a quote is answerable for at most two window closes
// (its batch finalizes at the next close), so anything still in the
// previous generation by then is unanswerable and can be dropped. Pending
// lifecycle notes (quoted-batch holds/releases, retirements the router did
// not itself initiate — assignments and expiries) fold into the worker
// table, and the table's gauges are taken.
func (e *Engine) pruneRoutes(period int) {
	if period >= e.taskRotated+2*e.cfg.Window {
		e.taskShardPrev, e.taskShardCur = e.taskShardCur, e.taskShardPrev
		clear(e.taskShardCur)
		e.taskRotated = period
	}
	e.applyNotes()
	e.syncTableGauges()
}

// applyNotes folds the pending shard-reported lifecycle notes into the
// worker table (router only). The drained buffer becomes the next one, so a
// steady flow of notes allocates nothing.
func (e *Engine) applyNotes() {
	e.notesMu.Lock()
	notes := e.notes
	e.notes = e.notesSpare[:0]
	e.notesMu.Unlock()
	for _, n := range notes {
		e.workers.apply(n)
	}
	e.notesSpare = notes
}

// syncTableGauges mirrors the router table's size and held count into
// atomics so Stats can read them without touching router-owned state.
func (e *Engine) syncTableGauges() {
	e.tracked.Store(int64(e.workers.size()))
	e.trackedHeld.Store(int64(e.workers.heldCount()))
}

// Close drains the event stream and stops the shard goroutines, finalizing
// in-flight quoted batches (unanswered quotes count as rejections). It is
// not an implicit flush: tasks of a window whose closing Tick was never
// submitted are discarded unpriced. Close returns after every shard has
// drained, so Poll and Stats then reflect the complete stream.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	if e.in == nil {
		for _, s := range e.shards {
			s.drain()
		}
	} else {
		close(e.in)
		e.wg.Wait()
	}
	e.stoppedNanos.Store(time.Now().UnixNano()) //lint:detsource wall-clock stop time feeds elapsed/throughput metrics only
	return nil
}

// Poll drains and returns the decisions emitted since the last Poll (nil
// when none). With Config.OnDecision installed, decisions bypass the queue
// and Poll always returns nil.
func (e *Engine) Poll() []Decision {
	e.outMu.Lock()
	ds := e.out
	e.out = nil
	e.outMu.Unlock()
	return ds
}

// emit delivers one decision, stamping its latency from the triggering
// event's submission time.
func (e *Engine) emit(d Decision, at time.Time) {
	d.Latency = time.Since(at) //lint:detsource latency metric; never read back into pricing
	e.latMu.Lock()
	e.p50.Add(float64(d.Latency))
	e.p99.Add(float64(d.Latency))
	e.latMu.Unlock()
	e.deliver(d)
}

// emitAll delivers a batch of decisions sharing one trigger (a closing
// Tick), amortizing the latency-recorder lock over the batch.
func (e *Engine) emitAll(ds []Decision, at time.Time) {
	if len(ds) == 0 {
		return
	}
	lat := time.Since(at) //lint:detsource latency metric; never read back into pricing
	e.latMu.Lock()
	for i := range ds {
		ds[i].Latency = lat
		e.p50.Add(float64(lat))
		e.p99.Add(float64(lat))
	}
	e.latMu.Unlock()
	if e.cfg.OnDecision != nil {
		for _, d := range ds {
			e.cfg.OnDecision(d)
		}
		return
	}
	e.outMu.Lock()
	e.out = append(e.out, ds...)
	e.outMu.Unlock()
}

func (e *Engine) deliver(d Decision) {
	if e.cfg.OnDecision != nil {
		e.cfg.OnDecision(d)
		return
	}
	e.outMu.Lock()
	e.out = append(e.out, d)
	e.outMu.Unlock()
}

// noteStrategyError records a dropped pricing batch: the shard's strategy
// violated the one-price-per-task contract (a typed *window.PriceCountError),
// so the batch's tasks went unpriced rather than panicking the shard
// goroutine. Stats surfaces the count and the most recent error.
func (e *Engine) noteStrategyError(err error) {
	e.stratErrs.Add(1)
	e.stratErrMu.Lock()
	e.lastStratErr = err
	e.stratErrMu.Unlock()
}

// noteBatch folds one finalized batch into the aggregate statistics,
// together with the stage times of its resolution.
func (e *Engine) noteBatch(shard int, out *window.Outcome) {
	e.aggMu.Lock()
	e.accepted += int64(out.AcceptedCount)
	e.served += int64(out.Served)
	e.shardRevenue[shard] += out.Revenue
	st := &e.shardStages[shard]
	st.Match += out.MatchTime
	st.Observe += out.ObserveTime
	e.aggMu.Unlock()
}

// notePriced records a priced batch against its shard: the task count (the
// per-shard throughput Stats reports) and the stage times of its pricing.
func (e *Engine) notePriced(shard int, pr *window.Priced) {
	tasks := int64(len(pr.Prices))
	e.priced.Add(tasks)
	e.batches.Add(1)
	e.aggMu.Lock()
	e.shardTasks[shard] += tasks
	st := &e.shardStages[shard]
	st.Windows++
	st.Graph += pr.GraphTime
	st.Context += pr.ContextTime
	st.Price += pr.PriceTime
	e.aggMu.Unlock()
}

// noteCache folds a shard's cache-counter delta (one priced window's worth)
// into the aggregate, under the same lock discipline as noteBatch.
func (e *Engine) noteCache(shard int, d window.CacheStats) {
	e.aggMu.Lock()
	e.shardCache[shard] = e.shardCache[shard].Add(d)
	e.aggMu.Unlock()
}
