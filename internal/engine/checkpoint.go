package engine

// Engine checkpoint/restore: crash-safe serialization of the complete
// market state — worker pools (with arrival order), open pricing windows,
// pending quoted batches (prices, requester replies, and the provisional
// matching), the router's lifecycle table and quote routes, every aggregate
// counter, and each shard's strategy state (core.StateSnapshotter).
//
// Exactness contract: checkpointing an engine, restoring the file into a
// fresh engine with the same configuration, and resuming the identical
// event stream reproduces the uninterrupted run's revenue and lifecycle
// ledger bit for bit. An inline engine and a one-shard one share a layout,
// so a file moves between them exactly.
//
// Re-sharding: a checkpoint may also be restored onto a different shard
// count as long as no quoted batch was pending. Workers and open tasks are
// re-homed by cell under the target engine's partitioner, and per-cell
// strategy state is merged across the recorded shards and re-filtered per
// target shard — pricing state travels with the workers of its cells.
// Totals are conserved; per-shard breakdowns (Stats.ShardRevenue/ShardTasks)
// restart at zero with prior revenue carried in the total.
//
// Files written while an inline engine had no router carry no worker table
// and no quote routes; Restore rebuilds both from the shard sections.
//
// Not captured: decision-latency quantiles (wall-clock, meaningless across
// a restart) and the undrained Poll queue (the consumer's business —
// checkpoint after draining). Checkpoint files contain the open tasks'
// private valuations in AutoDecide (simulation replay) mode.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/wal"
)

const checkpointVersion = 1

// checkpointFile is the serialized engine state (JSON).
type checkpointFile struct {
	Version         int  `json:"version"`
	Shards          int  `json:"shards"` // Config.Shards: 0 = inline, one shard state
	Window          int  `json:"window"`
	AutoDecide      bool `json:"auto_decide"`
	CellIndexGraphs bool `json:"cell_index_graphs"`
	Cells           int  `json:"cells"`
	// Partition fingerprints the cell -> shard map, so a restore onto the
	// same shard count but a different Partitioner is detected and re-homed
	// instead of silently installing pools the new routing will never hit.
	Partition uint64 `json:"partition_fingerprint"`
	// WALLSN is the write-ahead-log position this snapshot covers: every
	// event with LSN <= WALLSN is folded into the checkpointed state, so
	// recovery replays the tail strictly past it (RecoverWAL). Zero when
	// the engine ran without a WAL.
	WALLSN uint64 `json:"wal_lsn,omitempty"`

	RouterPeriod   int           `json:"router_period"`
	TaskRotated    int           `json:"task_rotated,omitempty"`
	TaskRoutes     []taskRouteCk `json:"task_routes,omitempty"`
	TaskRoutesPrev []taskRouteCk `json:"task_routes_prev,omitempty"`
	WorkerTable    []workerRowCk `json:"worker_table,omitempty"`

	Counters    countersCk `json:"counters"`
	ShardStates []shardCk  `json:"shard_states"`
}

type taskRouteCk struct {
	Task  int `json:"task"`
	Shard int `json:"shard"`
}

type workerRowCk struct {
	ID    int   `json:"id"`
	Shard int   `json:"shard"`
	Seen  int   `json:"seen"`
	State uint8 `json:"state"`
}

type countersCk struct {
	Events         int64 `json:"events"`
	Priced         int64 `json:"priced"`
	Quoted         int64 `json:"quoted"`
	Batches        int64 `json:"batches"`
	Late           int64 `json:"late"`
	StrategyErrors int64 `json:"strategy_errors,omitempty"`

	Onlines    int64 `json:"onlines"`
	Duplicates int64 `json:"duplicates"`
	Moves      int64 `json:"moves"`
	Pinned     int64 `json:"pinned"`
	Migrations int64 `json:"migrations"`
	Assigned   int64 `json:"assigned"`
	Expired    int64 `json:"expired"`
	Offline    int64 `json:"offline"`
	Pooled     int64 `json:"pooled"`

	Accepted       int64     `json:"accepted"`
	Served         int64     `json:"served"`
	ShardRevenue   []float64 `json:"shard_revenue"`
	ShardTasks     []int64   `json:"shard_tasks"`
	CarriedRevenue float64   `json:"carried_revenue,omitempty"`

	// Aggregate amortization-cache counters (Config.Amortize). Per-shard
	// attribution is not preserved across a restart: a fresh engine's
	// executors start with cold caches regardless of layout, so the totals
	// restore as carried values.
	CacheCtxHits       int64 `json:"cache_ctx_hits,omitempty"`
	CacheCtxMisses     int64 `json:"cache_ctx_misses,omitempty"`
	CachePriceHits     int64 `json:"cache_price_hits,omitempty"`
	CachePriceMisses   int64 `json:"cache_price_misses,omitempty"`
	CacheKDIncremental int64 `json:"cache_kd_incremental,omitempty"`
	CacheKDRebuilds    int64 `json:"cache_kd_rebuilds,omitempty"`
}

// shardCk is one shard's serialized market state. Workers are recorded in
// arrival order together with their arrival sequence numbers, so the
// restored pool reproduces batch construction (and therefore matching tie
// breaks) exactly.
type shardCk struct {
	BatchStart int                 `json:"batch_start"`
	LastTick   int                 `json:"last_tick"`
	NextSeq    uint64              `json:"next_seq"`
	Workers    []market.Worker     `json:"workers,omitempty"`
	Seqs       []uint64            `json:"seqs,omitempty"`
	OpenTasks  []market.Task       `json:"open_tasks,omitempty"`
	Pending    *pendingCk          `json:"pending,omitempty"`
	Strategy   *core.StrategyState `json:"strategy,omitempty"`
}

// pendingCk is a quoted batch awaiting requester decisions: everything
// needed to rebuild the batch context and matcher deterministically. The
// graph itself is not stored — construction is deterministic, so it is
// rebuilt from the tasks and the stable worker copy.
type pendingCk struct {
	Period   int             `json:"period"`
	Tasks    []pendingTaskCk `json:"tasks"`
	Prices   []float64       `json:"prices"`
	Workers  []market.Worker `json:"workers"`
	Decided  []bool          `json:"decided"`
	Accepted []bool          `json:"accepted"`
	Pairs    [][2]int        `json:"pairs,omitempty"`   // provisional matching: task -> right
	Removed  []int           `json:"removed,omitempty"` // withdrawn right vertices
}

// pendingTaskCk is the strategy-visible task projection (quoted batches
// never touch private valuations).
type pendingTaskCk struct {
	ID       int       `json:"id"`
	Origin   geo.Point `json:"origin"`
	Dest     geo.Point `json:"dest"`
	Distance float64   `json:"distance"`
}

// Control payloads carried on Event.ctl.
type ctlCheckpoint struct{ reply chan ctlCheckpointReply }

type ctlCheckpointReply struct {
	file *checkpointFile
	err  error
}

type ctlShardCheckpoint struct {
	out  *shardCk
	done chan error
}

type ctlRestore struct {
	file  *checkpointFile
	exact bool // layout (shard count + partitioner) matches the checkpoint
	reply chan error
}

type ctlShardRestore struct {
	st   *shardCk
	done chan error
}

// Checkpoint serializes the engine's complete state to w. It must not be
// called concurrently with Submit or Close; the request rides the router's
// event FIFO, so the snapshot reflects every event submitted before the
// call and the engine continues serving afterwards.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	req := &ctlCheckpoint{reply: make(chan ctlCheckpointReply, 1)}
	e.control(Event{Kind: kindCheckpoint, ctl: req})
	rep := <-req.reply
	if rep.err != nil {
		return rep.err
	}
	f := rep.file
	if e.wal != nil {
		// No Submit runs concurrently (precondition), so the log's last LSN
		// is exactly the log position the snapshot folds in. Force it
		// durable before recording it: a snapshot must never claim coverage
		// of records a crash could still lose, or recovery from this
		// snapshot would skip replaying events whose effects it lacks.
		f.WALLSN = e.wal.LastLSN()
		if err := e.wal.Sync(); err != nil {
			return fmt.Errorf("%w: sync before checkpoint: %w", ErrWAL, err)
		}
	}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return err
	}
	if e.wal != nil {
		// Drop a marker so the log itself records where snapshots were
		// taken; recovery skips it (state travels in the checkpoint file).
		var lsn [8]byte
		binary.LittleEndian.PutUint64(lsn[:], f.WALLSN)
		if _, err := e.wal.Append(wal.RecCheckpoint, lsn[:]); err != nil {
			return fmt.Errorf("%w: checkpoint marker: %w", ErrWAL, err)
		}
	}
	return nil
}

// Restore loads a checkpoint into this engine. The engine must be freshly
// created — same Window, AutoDecide, CellIndexGraphs, and cell count as the
// checkpoint — with no events submitted yet. The shard layout (count and
// partitioner) may differ (see the re-sharding notes above) unless the
// checkpoint holds pending quoted batches. After Restore, resume the
// stream from RestoredPeriod() + 1. On error the engine is partially
// initialized and must be discarded, not retried or fed events.
//
// Corrupt input — truncated files, bit flips, wrong versions — returns a
// descriptive error, never a panic: every structural assumption is
// validated before use, and a recover guard backstops whatever validation
// cannot foresee (the corruption-matrix test drives both layers).
func (e *Engine) Restore(r io.Reader) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: corrupt checkpoint: restore panicked: %v", p)
		}
	}()
	if e.closed.Load() {
		return ErrClosed
	}
	if e.restored || e.events.Load() != 0 {
		return fmt.Errorf("engine: Restore needs a fresh engine (state already present)")
	}
	var f checkpointFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("engine: decoding checkpoint: %w", err)
	}
	if f.Version != checkpointVersion {
		return fmt.Errorf("engine: unsupported checkpoint version %d", f.Version)
	}
	if f.Window != e.cfg.Window || f.AutoDecide != e.cfg.AutoDecide || f.CellIndexGraphs != e.cfg.CellIndexGraphs {
		return fmt.Errorf("engine: checkpoint config mismatch: window %d/%d, autoDecide %v/%v, cellIndexGraphs %v/%v",
			f.Window, e.cfg.Window, f.AutoDecide, e.cfg.AutoDecide, f.CellIndexGraphs, e.cfg.CellIndexGraphs)
	}
	if f.Cells != e.space.NumCells() {
		return fmt.Errorf("engine: checkpoint has %d cells, engine space has %d", f.Cells, e.space.NumCells())
	}
	// Strategies keep per-cell state in arrays indexed by cell id, so an id
	// outside the space would become an allocation as large as the id.
	for i := range f.ShardStates {
		if st := f.ShardStates[i].Strategy; st != nil {
			for _, c := range st.Cells {
				if c.Cell < 0 || c.Cell >= f.Cells {
					return fmt.Errorf("engine: checkpoint strategy state has cell %d, engine space has %d cells", c.Cell, f.Cells)
				}
			}
		}
	}
	if len(f.ShardStates) != max(f.Shards, 1) {
		return fmt.Errorf("engine: checkpoint has %d shard states for %d shards", len(f.ShardStates), f.Shards)
	}
	// Exact only when the full cell -> shard map matches: the same shard
	// count under a different Partitioner must re-home, not install pools
	// the new routing will never hit.
	exact := max(f.Shards, 1) == len(e.shards) && f.Partition == e.partitionFingerprint()
	if !exact {
		for i := range f.ShardStates {
			if f.ShardStates[i].Pending != nil {
				return fmt.Errorf("engine: cannot restore pending quoted batches onto a different shard layout (%d shards -> %d shards / new partitioner)",
					f.Shards, len(e.shards))
			}
		}
	}
	// Mark the engine used before touching any state: a failed restore
	// leaves it partially initialized, so it must be discarded, never
	// retried or fed events.
	e.restored = true
	req := &ctlRestore{file: &f, exact: exact, reply: make(chan error, 1)}
	e.control(Event{Kind: kindRestore, ctl: req})
	if err := <-req.reply; err != nil {
		return err
	}
	// Counters install last, so a failed restore cannot leave the
	// checkpoint's aggregates on an engine that holds no market state.
	if err := e.restoreCounters(&f, exact); err != nil {
		return err
	}
	e.restoredPeriod = f.RouterPeriod
	e.restoredWALLSN = f.WALLSN
	return nil
}

// partitionFingerprint hashes the engine's cell -> shard assignment
// (FNV-1a over shard indices in cell order; all zeros with one shard).
func (e *Engine) partitionFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for c, n := 0, e.space.NumCells(); c < n; c++ {
		h ^= uint64(e.part.ShardOf(c))
		h *= prime64
	}
	return h
}

// RestoredPeriod reports the last tick period the restored checkpoint had
// processed (0 when the engine was not restored). Resuming a replay from
// RestoredPeriod() + 1 continues the interrupted stream.
func (e *Engine) RestoredPeriod() int { return e.restoredPeriod }

// restoreCounters installs the checkpoint's aggregate counters. On a
// re-shard, per-shard breakdowns restart and prior totals are carried.
func (e *Engine) restoreCounters(f *checkpointFile, exact bool) error {
	c := &f.Counters
	e.events.Store(c.Events)
	e.priced.Store(c.Priced)
	e.quoted.Store(c.Quoted)
	e.batches.Store(c.Batches)
	e.late.Store(c.Late)
	e.stratErrs.Store(c.StrategyErrors)
	e.lcOnlines.Store(c.Onlines)
	e.lcDuplicates.Store(c.Duplicates)
	e.lcMoves.Store(c.Moves)
	e.lcPinned.Store(c.Pinned)
	e.lcMigrations.Store(c.Migrations)
	e.lcAssigned.Store(c.Assigned)
	e.lcExpired.Store(c.Expired)
	e.lcOffline.Store(c.Offline)
	e.pooled.Store(c.Pooled)

	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	e.accepted = c.Accepted
	e.served = c.Served
	e.carriedRevenue = c.CarriedRevenue
	e.carriedCache = CacheStats{
		CtxHits: c.CacheCtxHits, CtxMisses: c.CacheCtxMisses,
		PriceHits: c.CachePriceHits, PriceMisses: c.CachePriceMisses,
		KDIncremental: c.CacheKDIncremental, KDRebuilds: c.CacheKDRebuilds,
	}
	if exact {
		if len(c.ShardRevenue) != len(e.shardRevenue) || len(c.ShardTasks) != len(e.shardTasks) {
			return fmt.Errorf("engine: checkpoint has %d shard revenue entries, engine has %d",
				len(c.ShardRevenue), len(e.shardRevenue))
		}
		copy(e.shardRevenue, c.ShardRevenue)
		copy(e.shardTasks, c.ShardTasks)
		return nil
	}
	// Per-shard breakdowns restart on a re-shard; revenue is carried so
	// Stats.Revenue stays exact (TasksPriced is already a global counter).
	for _, r := range c.ShardRevenue {
		e.carriedRevenue += r
	}
	return nil
}

// newCheckpointFile assembles the config and counter sections.
func (e *Engine) newCheckpointFile(states []shardCk) *checkpointFile {
	f := &checkpointFile{
		Version:         checkpointVersion,
		Shards:          e.cfg.Shards,
		Window:          e.cfg.Window,
		AutoDecide:      e.cfg.AutoDecide,
		CellIndexGraphs: e.cfg.CellIndexGraphs,
		Cells:           e.space.NumCells(),
		Partition:       e.partitionFingerprint(),
		ShardStates:     states,
	}
	f.Counters = countersCk{
		Events:         e.events.Load(),
		Priced:         e.priced.Load(),
		Quoted:         e.quoted.Load(),
		Batches:        e.batches.Load(),
		Late:           e.late.Load(),
		StrategyErrors: e.stratErrs.Load(),
		Onlines:        e.lcOnlines.Load(),
		Duplicates:     e.lcDuplicates.Load(),
		Moves:          e.lcMoves.Load(),
		Pinned:         e.lcPinned.Load(),
		Migrations:     e.lcMigrations.Load(),
		Assigned:       e.lcAssigned.Load(),
		Expired:        e.lcExpired.Load(),
		Offline:        e.lcOffline.Load(),
		Pooled:         e.pooled.Load(),
	}
	e.aggMu.Lock()
	f.Counters.Accepted = e.accepted
	f.Counters.Served = e.served
	f.Counters.ShardRevenue = append([]float64(nil), e.shardRevenue...)
	f.Counters.ShardTasks = append([]int64(nil), e.shardTasks...)
	f.Counters.CarriedRevenue = e.carriedRevenue
	cache := e.carriedCache
	for _, c := range e.shardCache {
		cache = cache.Add(c)
	}
	e.aggMu.Unlock()
	f.Counters.CacheCtxHits = cache.CtxHits
	f.Counters.CacheCtxMisses = cache.CtxMisses
	f.Counters.CachePriceHits = cache.PriceHits
	f.Counters.CachePriceMisses = cache.PriceMisses
	f.Counters.CacheKDIncremental = cache.KDIncremental
	f.Counters.CacheKDRebuilds = cache.KDRebuilds
	return f
}

// routerCheckpoint runs in the router: barrier every shard (each serializes
// its state and flushes its lifecycle notes), fold the notes into the
// worker table, and serialize the router-owned routing state.
func (e *Engine) routerCheckpoint(req *ctlCheckpoint) {
	states := make([]shardCk, len(e.shards))
	for i, s := range e.shards {
		sub := &ctlShardCheckpoint{out: &states[i], done: make(chan error, 1)}
		s.send(Event{Kind: kindCheckpoint, ctl: sub})
		if err := <-sub.done; err != nil {
			req.reply <- ctlCheckpointReply{err: err}
			return
		}
	}
	e.applyNotes()
	f := e.newCheckpointFile(states)
	f.RouterPeriod = e.routerPeriod
	f.TaskRotated = e.taskRotated
	f.TaskRoutes = routesCk(e.taskShardCur)
	f.TaskRoutesPrev = routesCk(e.taskShardPrev)
	for _, id := range sortedKeys(e.workers.m) {
		ent := e.workers.m[id]
		f.WorkerTable = append(f.WorkerTable, workerRowCk{
			ID: id, Shard: ent.shard, Seen: ent.seen, State: uint8(ent.state)})
	}
	req.reply <- ctlCheckpointReply{file: f}
}

// routerRestore runs in the router: install the routing state and forward
// each shard its section (re-homed first when the layout changed). The
// panic guard turns corrupt-checkpoint surprises into a Restore error
// instead of killing the router.
func (e *Engine) routerRestore(req *ctlRestore) {
	defer func() {
		if p := recover(); p != nil {
			req.reply <- fmt.Errorf("engine: corrupt checkpoint: router restore panicked: %v", p)
		}
	}()
	f := req.file
	e.routerPeriod = f.RouterPeriod
	e.taskRotated = f.TaskRotated
	e.taskShardCur = make(map[int]int, len(f.TaskRoutes))
	e.taskShardPrev = make(map[int]int, len(f.TaskRoutesPrev))
	e.workers = newWorkerTable()

	states := f.ShardStates
	switch {
	case !req.exact:
		// The recorded routes and table name the old layout's shards.
		states = e.reshard(f)
		e.rebuildRouterState(states, f.RouterPeriod)
	case f.WorkerTable == nil && f.TaskRoutes == nil && f.TaskRoutesPrev == nil:
		// Written by an inline engine that had no router. An engine that
		// had one records state whenever a worker is pooled or a quote is
		// answerable, so the rebuild finds nothing it would have recorded.
		e.rebuildRouterState(states, f.RouterPeriod)
	default:
		for _, tr := range f.TaskRoutes {
			e.taskShardCur[tr.Task] = tr.Shard
		}
		for _, tr := range f.TaskRoutesPrev {
			e.taskShardPrev[tr.Task] = tr.Shard
		}
		for _, row := range f.WorkerTable {
			e.workers.set(row.ID, workerEntry{shard: row.Shard, seen: row.Seen, state: WorkerState(row.State)})
		}
	}
	for i, s := range e.shards {
		sub := &ctlShardRestore{st: &states[i], done: make(chan error, 1)}
		s.send(Event{Kind: kindRestore, ctl: sub})
		if err := <-sub.done; err != nil {
			req.reply <- err
			return
		}
	}
	e.syncTableGauges()
	req.reply <- nil
}

// rebuildRouterState derives the worker table and the quote routes from
// shard sections: a row per pooled worker, quoted-held while the shard's
// pending batch still references it, and in quoted mode a route per pending
// or open task. Rows are stamped with the restored router period, before
// any note the resumed shards can emit.
func (e *Engine) rebuildRouterState(states []shardCk, period int) {
	for si, st := range states {
		held := map[int]bool{}
		if p := st.Pending; p != nil {
			for r, w := range p.Workers {
				held[w.ID] = !slices.Contains(p.Removed, r)
			}
			for _, t := range p.Tasks {
				e.taskShardCur[t.ID] = si
			}
		}
		for _, w := range st.Workers {
			ent := workerEntry{shard: si, seen: period, state: StateOnline}
			if held[w.ID] {
				ent.state = StateQuotedHeld
			}
			e.workers.set(w.ID, ent)
		}
		if !e.cfg.AutoDecide {
			for _, t := range st.OpenTasks {
				e.taskShardCur[t.ID] = si
			}
		}
	}
}

// reshard re-homes a checkpoint onto this engine's shard layout: workers
// and open tasks move to the shard owning their cell, arrival order within
// each target shard follows the recorded shard/pool order, and per-cell
// strategy state is merged across the recorded shards and filtered per
// target shard — pricing state travels with the workers of its cells.
func (e *Engine) reshard(f *checkpointFile) []shardCk {
	out := make([]shardCk, len(e.shards))
	ownerOf := e.part.ShardOf
	batchStart, lastTick := 0, 0
	var parts []core.StrategyState
	for i := range f.ShardStates {
		st := &f.ShardStates[i]
		if st.BatchStart > batchStart {
			batchStart = st.BatchStart
		}
		if st.LastTick > lastTick {
			lastTick = st.LastTick
		}
		if st.Strategy != nil {
			parts = append(parts, *st.Strategy)
		}
		for _, w := range st.Workers {
			tgt := &out[ownerOf(e.space.CellOf(w.Loc))]
			tgt.Workers = append(tgt.Workers, w)
			tgt.Seqs = append(tgt.Seqs, tgt.NextSeq)
			tgt.NextSeq++
		}
		for _, t := range st.OpenTasks {
			tgt := &out[ownerOf(e.space.CellOf(t.Origin))]
			tgt.OpenTasks = append(tgt.OpenTasks, t)
		}
	}
	merged := core.MergeStrategyStates(parts)
	for i := range out {
		out[i].BatchStart = batchStart
		out[i].LastTick = lastTick
		if len(parts) > 0 {
			fs := merged.CellFilter(func(cell int) bool { return ownerOf(cell) == i })
			out[i].Strategy = &fs
		}
	}
	return out
}

// checkpoint serializes the shard's market state (run wherever the shard
// handles events) and flushes pending lifecycle notes so the router's table
// is current before it is serialized.
func (s *shard) checkpoint() (shardCk, error) {
	st := shardCk{
		BatchStart: s.batchStart,
		LastTick:   s.lastTick,
		NextSeq:    s.nextSeq,
		OpenTasks:  append([]market.Task(nil), s.tasks...),
	}
	for i := range s.pool {
		if !s.poolDead[i] {
			st.Workers = append(st.Workers, s.pool[i])
			st.Seqs = append(st.Seqs, s.poolSeq[i])
		}
	}
	if pb := s.pending; pb != nil {
		p := &pendingCk{
			Period:   pb.ctx.Period,
			Prices:   append([]float64(nil), pb.prices...),
			Workers:  append([]market.Worker(nil), pb.workers...),
			Decided:  append([]bool(nil), pb.decided...),
			Accepted: append([]bool(nil), pb.accepted...),
		}
		for _, tv := range pb.ctx.Tasks {
			p.Tasks = append(p.Tasks, pendingTaskCk{ID: tv.ID, Origin: tv.Origin, Dest: tv.Dest, Distance: tv.Distance})
		}
		for l, r := range pb.inc.Matching().LeftTo {
			if r >= 0 {
				p.Pairs = append(p.Pairs, [2]int{l, r})
			}
		}
		for r := range pb.workers {
			if pb.inc.Removed(r) {
				p.Removed = append(p.Removed, r)
			}
		}
		st.Pending = p
	}
	if snap, ok := s.strat.(core.StateSnapshotter); ok {
		stg, err := snap.SnapshotState()
		if err != nil {
			return st, fmt.Errorf("engine: shard %d strategy snapshot: %w", s.id, err)
		}
		st.Strategy = &stg
	}
	s.flushNotes()
	return st, nil
}

// restore installs a checkpointed shard section (run wherever the shard
// handles events).
func (s *shard) restore(st *shardCk) error {
	if len(st.Seqs) != len(st.Workers) {
		return fmt.Errorf("engine: shard state has %d seqs for %d workers", len(st.Seqs), len(st.Workers))
	}
	// Whatever the executor cached describes the pre-restore engine; the
	// restored market must rebuild from scratch.
	s.exec.InvalidateCache()
	s.batchStart = st.BatchStart
	s.lastTick = st.LastTick
	s.pool = append(s.pool[:0], st.Workers...)
	s.poolSeq = append(s.poolSeq[:0], st.Seqs...)
	// Checkpoints written before the pool kept arrival order record it in
	// storage order, permuted by swap-deletes; the sequence numbers put it
	// back.
	if !slices.IsSorted(s.poolSeq) {
		sort.Sort(poolBySeq{s})
	}
	resizeZeroed(&s.poolDead, len(s.pool))
	s.nextSeq = st.NextSeq
	clear(s.poolID)
	for i := range s.pool {
		if i > 0 && s.poolSeq[i] == s.poolSeq[i-1] {
			return fmt.Errorf("engine: shard state repeats arrival sequence %d", s.poolSeq[i])
		}
		s.poolID[s.pool[i].ID] = s.poolSeq[i]
	}
	if n := len(s.poolSeq); n > 0 {
		// A next sequence at or below the last one would break the order
		// the first admission after the restore.
		s.nextSeq = max(s.nextSeq, s.poolSeq[n-1]+1)
	}
	s.tasks = append(s.tasks[:0], st.OpenTasks...)
	s.pending = nil
	if st.Pending != nil {
		if err := s.restorePending(st.Pending); err != nil {
			return err
		}
	}
	if st.Strategy != nil {
		snap, ok := s.strat.(core.StateSnapshotter)
		if !ok {
			return fmt.Errorf("engine: checkpoint carries strategy state but %s cannot restore it", s.strat.Name())
		}
		if err := snap.RestoreState(*st.Strategy); err != nil {
			return fmt.Errorf("engine: shard %d strategy restore: %w", s.id, err)
		}
	}
	// Swallow the restore's own executor bookkeeping (re-arming a quoted
	// batch rebuilds a context outside any priced window) so reported cache
	// deltas keep counting priced windows only.
	s.lastCache = s.exec.CacheStats()
	return nil
}

// poolBySeq orders a shard's pool by arrival sequence.
type poolBySeq struct{ s *shard }

func (p poolBySeq) Len() int           { return len(p.s.pool) }
func (p poolBySeq) Less(i, j int) bool { return p.s.poolSeq[i] < p.s.poolSeq[j] }
func (p poolBySeq) Swap(i, j int) {
	p.s.pool[i], p.s.pool[j] = p.s.pool[j], p.s.pool[i]
	p.s.poolSeq[i], p.s.poolSeq[j] = p.s.poolSeq[j], p.s.poolSeq[i]
}

// restorePending re-arms a quoted batch: graph and context are rebuilt
// deterministically through the executor, and the matcher is brought back
// to the recorded matching pair by pair.
func (s *shard) restorePending(p *pendingCk) error {
	n := len(p.Tasks)
	if len(p.Prices) != n || len(p.Decided) != n || len(p.Accepted) != n {
		return fmt.Errorf("engine: pending batch arrays disagree on length")
	}
	tasks := make([]market.Task, n)
	for i, t := range p.Tasks {
		tasks[i] = market.Task{ID: t.ID, Period: p.Period, Origin: t.Origin, Dest: t.Dest, Distance: t.Distance}
	}
	workers := append([]market.Worker(nil), p.Workers...)
	pr := s.exec.Rebuild(p.Period, tasks, workers)
	inc := s.exec.ArmQuoted(pr)
	for _, r := range p.Removed {
		if r < 0 || r >= len(workers) {
			return fmt.Errorf("engine: pending batch removes right %d of %d", r, len(workers))
		}
		inc.RemoveRight(r)
	}
	for _, pair := range p.Pairs {
		// Bounds first: a corrupt checkpoint's indices must error, not
		// panic the matcher.
		if pair[0] < 0 || pair[0] >= n || pair[1] < 0 || pair[1] >= len(workers) {
			return fmt.Errorf("engine: pending pairing (%d, %d) outside %d tasks x %d workers",
				pair[0], pair[1], n, len(workers))
		}
		if !inc.RestorePair(pair[0], pair[1]) {
			return fmt.Errorf("engine: pending pairing (%d, %d) does not fit the rebuilt batch", pair[0], pair[1])
		}
	}
	pb := &s.scratch.pb
	pb.ctx = pr.Ctx
	pb.prices = p.Prices
	pb.workers = workers
	pb.inc = inc
	pb.decided = p.Decided
	pb.accepted = p.Accepted
	if pb.taskIdx == nil {
		pb.taskIdx = make(map[int]int, n)
	} else {
		clear(pb.taskIdx)
	}
	for i, tv := range pr.Ctx.Tasks {
		pb.taskIdx[tv.ID] = i
	}
	pb.snap = pb.snap[:0]
	s.pending = pb
	return nil
}

// routesCk serializes a task-route map deterministically (sorted by task).
func routesCk(m map[int]int) []taskRouteCk {
	if len(m) == 0 {
		return nil
	}
	out := make([]taskRouteCk, 0, len(m))
	for _, t := range sortedKeys(m) {
		out = append(out, taskRouteCk{Task: t, Shard: m[t]})
	}
	return out
}

// sortedKeys returns the map's int keys ascending.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
