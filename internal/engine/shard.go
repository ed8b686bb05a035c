package engine

import (
	"fmt"
	"slices"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/window"
)

// shard owns the market state of a subset of grid cells: the worker pool,
// the open pricing window's tasks, at most one in-flight quoted batch, and a
// private strategy instance. Only the router's sends drive a shard — from
// its own goroutine reading its channel, or inline when the engine has no
// goroutines — so none of this state needs locks.
//
// Pool discipline: the pool is always in arrival order, because batch
// construction takes its right-vertex order from it, that order steers
// matching tie breaks, and replay equivalence rests on those. Admissions
// append with the next arrival sequence number, so poolSeq is strictly
// ascending at all times. Removals between window closes only tombstone the
// entry (poolDead) and forget its ID; the one stable compaction at the top
// of every window close (evictExpired) drops tombstones and lapsed workers
// together, so the pool a batch is built from is dense. By-ID operations go
// through poolID (worker ID -> arrival sequence) and a binary search of
// poolSeq, so nothing has to be rewritten when entries shift.
type shard struct {
	id     int
	eng    *Engine
	in     chan Event // nil when the engine runs inline
	strat  core.Strategy
	window int

	batchStart int // first period of the open window
	lastTick   int // highest tick period seen (stamps lifecycle notes)

	tasks    []market.Task   // the open window's tasks, in arrival order
	pool     []market.Worker // online workers in arrival order, tombstones included
	poolSeq  []uint64        // arrival sequence per pool entry, strictly ascending
	poolDead []bool          // tombstone per pool entry (removed since the last compaction)
	poolID   map[int]uint64  // live worker ID -> arrival sequence
	nextSeq  uint64          // next arrival sequence number

	pending *pendingBatch   // quoted batch awaiting requester decisions
	notes   []lifecycleNote // pool transitions since the last flush to the router

	// exec is the shard's window-execution core: the shared
	// price -> accept -> assign pipeline (internal/window) with all graph,
	// context, and matcher arenas inside, reused window over window.
	exec    *window.Executor
	scratch batchScratch // engine-side per-batch arenas, reused every window

	// lastCache is the executor's cumulative cache counters as of the last
	// report to the engine; closeBatch pushes the delta after each Price.
	lastCache window.CacheStats
}

// batchScratch is the shard's reusable engine-side working state (the
// pipeline's own arenas live in the executor). One pricing window fully
// consumes a batch before the next window rebuilds it (a quoted batch is
// finalized by the next closeBatch before any arena is reused), so every
// arena below is recycled window over window and the steady-state hot path
// allocates nothing beyond what strategies return.
type batchScratch struct {
	pb      pendingBatch    // quoted-batch shell, reused per quote
	batchW  []market.Worker // filtered/stable batch worker copies
	poolIdx []int           // batch index -> pool position (AutoDecide filter)
	cons    []int           // consumed pool positions (AutoDecide)
	ds      []Decision      // decision batch buffer (copied on emit)
}

// pendingBatch is a priced batch whose requesters have not all replied
// (AutoDecide disabled). It keeps a stable copy of the batch's worker slice
// so pool churn cannot shift the matcher's right-vertex indices.
type pendingBatch struct {
	ctx      *core.PeriodContext
	prices   []float64
	workers  []market.Worker // batch right side (stable copy)
	inc      *match.Incremental
	decided  []bool
	accepted []bool
	taskIdx  map[int]int // task ID -> batch index
	snap     []int       // reusable LeftTo snapshot for reassignment detection
}

func newShard(id int, eng *Engine, strat core.Strategy) *shard {
	mode := window.GraphKD
	if eng.cfg.CellIndexGraphs {
		mode = window.GraphCellIndex
	}
	s := &shard{id: id, eng: eng, strat: strat, window: eng.cfg.Window,
		poolID: make(map[int]uint64),
		exec:   window.NewExecutor(eng.space, mode)}
	s.exec.SetAmortize(eng.cfg.Amortize)
	return s
}

// reportCache pushes the executor's cache-counter delta since the last
// report to the engine aggregate (called after every Price, on both the
// success and the dropped-batch path, so counters track pricing attempts).
func (s *shard) reportCache() {
	cur := s.exec.CacheStats()
	d := cur.Sub(s.lastCache)
	if d == (window.CacheStats{}) {
		return
	}
	s.lastCache = cur
	s.eng.noteCache(s.id, d)
}

// send hands the shard one event: on its channel, or straight to handle
// when the engine runs inline.
func (s *shard) send(ev Event) {
	if s.in == nil {
		s.handle(ev)
		return
	}
	s.in <- ev
}

// run drains the shard's channel until the router closes it, then drains
// the shard.
func (s *shard) run() {
	defer s.eng.wg.Done()
	for ev := range s.in {
		s.handle(ev)
	}
	s.drain()
}

// drain settles the shard at Close: the in-flight quoted batch finalizes so
// its revenue is counted.
func (s *shard) drain() {
	s.finalizePending(time.Now()) //lint:detsource shutdown drain stamp feeds latency metrics only
	s.flushNotes()
}

func (s *shard) handle(ev Event) {
	switch ev.Kind {
	case KindTick:
		s.advanceTo(ev.Period, ev.at)
	case KindTaskArrival:
		s.tasks = append(s.tasks, ev.Task)
	case KindWorkerOnline:
		s.workerOnline(ev.Worker)
	case KindWorkerOffline:
		s.workerOffline(ev.WorkerID, ev.at)
	case KindWorkerMove:
		s.workerMove(ev)
	case KindAcceptDecision:
		s.decide(ev)
	case kindEvict:
		s.evictStale(ev.WorkerID, ev.at)
	case kindAdmit:
		s.admit(ev.Worker)
	case kindCheckpoint:
		sub := ev.ctl.(*ctlShardCheckpoint)
		st, err := s.checkpoint()
		*sub.out = st
		sub.done <- err
	case kindRestore:
		sub := ev.ctl.(*ctlShardRestore)
		sub.done <- s.restoreGuarded(sub.st)
	}
}

// restoreGuarded backstops restore with a panic guard: a corrupt checkpoint
// that slips past validation must surface as a Restore error, never kill
// the shard goroutine.
func (s *shard) restoreGuarded(st *shardCk) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: corrupt checkpoint: shard %d restore panicked: %v", s.id, p)
		}
	}()
	return s.restore(st)
}

// poolAppend admits a worker at the tail of the pool with a fresh arrival
// sequence number.
func (s *shard) poolAppend(w market.Worker) {
	s.poolID[w.ID] = s.nextSeq
	s.pool = append(s.pool, w)
	s.poolSeq = append(s.poolSeq, s.nextSeq)
	s.poolDead = append(s.poolDead, false)
	s.nextSeq++
}

// poolFind returns the pool index of the live worker with the given ID.
func (s *shard) poolFind(id int) (int, bool) {
	seq, ok := s.poolID[id]
	if !ok {
		return 0, false
	}
	i, _ := slices.BinarySearch(s.poolSeq, seq)
	return i, true
}

// poolRemoveAt tombstones the live pool entry at index i; the next
// compaction drops it.
func (s *shard) poolRemoveAt(i int) {
	delete(s.poolID, s.pool[i].ID)
	s.poolDead[i] = true
}

// workerOnline admits a worker into the pool. A duplicate online (the ID is
// already pooled) replaces the entry in place — never appends a second copy,
// which would double-count supply within the shard — and keeps the original
// arrival sequence, preserving the worker's batch-order slot. It counts as a
// duplicate online.
func (s *shard) workerOnline(w market.Worker) {
	if i, ok := s.poolFind(w.ID); ok {
		s.pool[i] = w
		s.eng.late.Add(1)
		s.eng.lcDuplicates.Add(1)
		return
	}
	s.poolAppend(w)
	s.eng.pooled.Add(1)
	s.eng.lcOnlines.Add(1)
}

// admit inserts a migrated worker (the admit half of the cross-shard
// handshake). The ID cannot already be pooled here — the router resolved
// the previous owner synchronously — but replace defensively if it is.
func (s *shard) admit(w market.Worker) {
	if i, ok := s.poolFind(w.ID); ok {
		s.pool[i] = w
		return
	}
	s.poolAppend(w)
	s.eng.pooled.Add(1)
}

// workerMove relocates a pooled worker. With ev.mig set this is the
// migrate-out half of the cross-shard handshake: hand the worker record to
// the router, unless a pending quoted batch still references the worker, in
// which case the move applies in place and the worker stays pinned to this
// shard. Without ev.mig it is an in-place move (the new cell stayed in this
// shard); the pending batch's stable worker copies are never touched —
// quoted prices and the matching were computed against the old position
// and remain committed.
func (s *shard) workerMove(ev Event) {
	if ev.mig != nil {
		i, ok := s.poolFind(ev.WorkerID)
		if !ok {
			ev.mig.reply <- migrateReply{}
			return
		}
		if s.heldByPending(ev.WorkerID) {
			s.pool[i].Loc = ev.Loc
			ev.mig.reply <- migrateReply{ok: true, pinned: true}
			return
		}
		w := s.pool[i]
		w.Loc = ev.Loc
		s.poolRemoveAt(i)
		s.eng.pooled.Add(-1)
		ev.mig.reply <- migrateReply{ok: true, worker: w}
		return
	}
	if i, ok := s.poolFind(ev.WorkerID); ok {
		s.pool[i].Loc = ev.Loc
		s.eng.lcMoves.Add(1)
		return
	}
	// Already settled here; the router's table had not heard yet.
	s.eng.late.Add(1)
}

// heldByPending reports whether the pending quoted batch still references
// the worker (it appears on the batch's right side and has not been removed
// from the matcher).
func (s *shard) heldByPending(id int) bool {
	pb := s.pending
	if pb == nil {
		return false
	}
	for r := range pb.workers {
		if pb.workers[r].ID == id && !pb.inc.Removed(r) {
			return true
		}
	}
	return false
}

// evictStale removes a ghost pool copy after a duplicate online re-homed
// the worker to another shard, and counts the duplicate if the copy was
// still pooled (the router's table may name a worker this shard already
// retired). A provisional assignment held by the stale copy is repaired
// exactly like an offline.
func (s *shard) evictStale(id int, at time.Time) {
	s.repairPending(id, at)
	if i, ok := s.poolFind(id); ok {
		s.poolRemoveAt(i)
		s.eng.pooled.Add(-1)
		s.eng.late.Add(1)
		s.eng.lcDuplicates.Add(1)
	}
}

// advanceTo moves the shard clock to period p, closing every window boundary
// crossed on the way. Idle stretches (no open tasks, no pending batch) are
// fast-forwarded in one step so a sparse tick sequence costs O(1), not one
// iteration per skipped window.
func (s *shard) advanceTo(p int, at time.Time) {
	if p > s.lastTick {
		s.lastTick = p
	}
	for p >= s.batchStart+s.window {
		if len(s.tasks) == 0 && s.pending == nil {
			k := (p - s.batchStart) / s.window
			s.batchStart += k * s.window
			s.evictExpired(s.batchStart - 1)
			break
		}
		s.closeBatch(s.batchStart+s.window-1, at)
		s.batchStart += s.window
	}
	s.flushNotes()
}

// flushNotes reports the pool transitions since the last tick to the
// router, which folds them into the worker table (batch-grain, one lock).
func (s *shard) flushNotes() {
	if len(s.notes) == 0 {
		return
	}
	e := s.eng
	e.notesMu.Lock()
	e.notes = append(e.notes, s.notes...)
	e.notesMu.Unlock()
	s.notes = s.notes[:0]
}

// note queues one lifecycle note for the router, stamped with the tick
// period this shard is processing.
func (s *shard) note(id int, kind noteKind) {
	s.notes = append(s.notes, lifecycleNote{id: id, shard: s.id, period: s.lastTick, kind: kind})
}

// countRetire bumps the engine's per-reason retirement counter.
func (s *shard) countRetire(why RetireReason) {
	switch why {
	case RetireAssigned:
		s.eng.lcAssigned.Add(1)
	case RetireExpired:
		s.eng.lcExpired.Add(1)
	case RetireOffline:
		s.eng.lcOffline.Add(1)
	}
}

// workerExpired reports whether w's availability has lapsed by period t.
// Unlike !ActiveAt(t) it keeps workers whose start period lies in the
// future, which can occur in live streams that announce workers early.
func workerExpired(w market.Worker, t int) bool {
	d := w.Duration
	if d <= 0 {
		d = 1
	}
	return t >= w.Period+d
}

// evictExpired is the pool's one compaction: a stable pass that drops the
// tombstones left since the last one together with the workers whose
// availability has lapsed by the given period. A pass that finds neither
// writes nothing.
func (s *shard) evictExpired(period int) {
	kept, expired := 0, 0
	for i := range s.pool {
		if s.poolDead[i] {
			continue
		}
		w := &s.pool[i]
		if workerExpired(*w, period) {
			s.countRetire(RetireExpired)
			s.note(w.ID, noteRetire)
			delete(s.poolID, w.ID)
			expired++
			continue
		}
		if kept != i {
			s.pool[kept] = *w
			s.poolSeq[kept] = s.poolSeq[i]
		}
		kept++
	}
	s.eng.pooled.Add(-int64(expired))
	if kept == len(s.pool) {
		return
	}
	s.pool = s.pool[:kept]
	s.poolSeq = s.poolSeq[:kept]
	s.poolDead = s.poolDead[:kept]
	clear(s.poolDead)
}

// closeBatch prices the open window as of the given period: finalize the
// previous quoted batch, evict lapsed workers, then run the unified window
// pipeline (internal/window): graph + context construction, pricing, and
// either immediate resolution (AutoDecide) or a quote that waits for
// requester replies.
//
// Everything the batch builds — worker copies, graph, context, matcher,
// decision buffers — lives in s.exec and s.scratch and is reused window
// over window; a batch fully settles (the quoted case at this closeBatch's
// finalizePending, the AutoDecide case within resolve) before any arena is
// touched again.
//
// A strategy returning a malformed price vector drops the batch (its tasks
// go unpriced) and surfaces a typed *window.PriceCountError through
// Stats.LastStrategyError instead of panicking the shard goroutine.
func (s *shard) closeBatch(period int, at time.Time) {
	s.finalizePending(at)
	s.evictExpired(period)
	tasks := s.tasks
	// Recycle the arrival buffer: nothing below retains the raw task slice
	// (contexts copy task views, graphs hold indices), and no arrival can
	// interleave while the batch is being built.
	s.tasks = tasks[:0]
	if len(tasks) == 0 {
		return
	}

	// The batch's right side: every pooled worker currently active. poolIdx
	// maps batch indices back to pool positions; nil means identity.
	sc := &s.scratch
	batchWorkers := s.pool
	var poolIdx []int
	for i := range s.pool {
		if !s.pool[i].ActiveAt(period) {
			batchWorkers = nil
			break
		}
	}
	if batchWorkers == nil {
		sc.batchW = sc.batchW[:0]
		sc.poolIdx = sc.poolIdx[:0]
		for i, w := range s.pool {
			if w.ActiveAt(period) {
				sc.batchW = append(sc.batchW, w)
				sc.poolIdx = append(sc.poolIdx, i)
			}
		}
		batchWorkers, poolIdx = sc.batchW, sc.poolIdx
	}
	auto := s.eng.cfg.AutoDecide
	if !auto {
		// The pool mutates while requesters deliberate; give the pending
		// batch a stable copy and consume by worker ID at finalization. The
		// copy lives in the batchW arena (possibly self-copying the filtered
		// view, which append handles) and is held until finalization — by
		// which time the next batch has not yet touched the arena.
		if poolIdx == nil {
			sc.batchW = append(sc.batchW[:0], batchWorkers...)
			batchWorkers = sc.batchW
		}
		poolIdx = nil
	}

	pr, err := s.exec.Price(s.strat, period, tasks, batchWorkers)
	s.reportCache()
	if err != nil {
		s.eng.noteStrategyError(err)
		return
	}
	s.eng.notePriced(s.id, pr)

	if auto {
		s.resolve(pr, tasks, batchWorkers, poolIdx, at)
	} else {
		s.quote(pr, batchWorkers, at)
	}
}

// resolve applies the requesters' valuations immediately through the
// executor — exact left-weighted maximum-weight assignment, so the
// deterministic engine reproduces the simulator's values by construction —
// and translates the outcome into decisions and pool consumption.
func (s *shard) resolve(pr *window.Priced, tasks []market.Task,
	batchWorkers []market.Worker, poolIdx []int, at time.Time) {
	sc := &s.scratch
	out := s.exec.ResolveImmediate(s.strat, pr, tasks)
	ctx, prices := pr.Ctx, pr.Prices

	ds := resizeDecisions(&sc.ds, len(tasks))
	consumed := sc.cons[:0]
	for i := range tasks {
		d := Decision{TaskID: ctx.Tasks[i].ID, Period: ctx.Period, Cell: ctx.Tasks[i].Cell,
			Price: prices[i], WorkerID: -1}
		if out.Accepted[i] {
			d.Accepted = true
			if r := out.Matching.LeftTo[i]; r >= 0 {
				d.Served = true
				d.WorkerID = batchWorkers[r].ID
				d.Revenue = ctx.Tasks[i].Distance * prices[i]
				if poolIdx != nil {
					consumed = append(consumed, poolIdx[r])
				} else {
					consumed = append(consumed, r)
				}
			}
		}
		ds[i] = d
	}
	sc.cons = consumed
	s.consume(consumed)
	s.eng.noteBatch(s.id, out)
	s.eng.emitAll(ds, at)
}

// quote emits one price offer per task and parks the batch until requesters
// reply (or the next window closes it with the silent ones as rejections).
func (s *shard) quote(pr *window.Priced, batchWorkers []market.Worker, at time.Time) {
	sc := &s.scratch
	ctx, prices := pr.Ctx, pr.Prices
	n := len(ctx.Tasks)
	pb := &sc.pb
	pb.ctx = ctx
	pb.prices = prices
	pb.workers = batchWorkers
	pb.inc = s.exec.ArmQuoted(pr)
	pb.decided = resizeZeroed(&pb.decided, n)
	pb.accepted = resizeZeroed(&pb.accepted, n)
	if pb.taskIdx == nil {
		pb.taskIdx = make(map[int]int, n)
	} else {
		clear(pb.taskIdx)
	}
	ds := resizeDecisions(&sc.ds, n)
	for i, tv := range ctx.Tasks {
		pb.taskIdx[tv.ID] = i
		ds[i] = Decision{TaskID: tv.ID, Period: ctx.Period, Cell: tv.Cell,
			Price: prices[i], Quoted: true, WorkerID: -1}
	}
	s.pending = pb
	// The batch holds its workers until finalization: quoted-held pins them
	// to this shard (migrations apply in place) and the router's lifecycle
	// table reflects the hold.
	for i := range batchWorkers {
		s.note(batchWorkers[i].ID, noteHeld)
	}
	s.eng.quoted.Add(int64(n))
	s.eng.emitAll(ds, at)
}

// resizeZeroed returns *p resized to n zero-valued entries, reusing
// capacity.
func resizeZeroed[T any](p *[]T, n int) []T {
	s := *p
	if cap(s) >= n {
		s = s[:n]
		clear(s)
	} else {
		s = make([]T, n)
	}
	*p = s
	return s
}

// resizeDecisions returns *p resized to n entries, reusing capacity. The
// caller overwrites every entry.
func resizeDecisions(p *[]Decision, n int) []Decision {
	s := *p
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]Decision, n)
	}
	*p = s
	return s
}

// decide handles a requester's reply to a quote: accepts are assigned
// immediately by a single augmentation (first-come-first-matched, the
// online regime), rejects just release the task.
func (s *shard) decide(ev Event) {
	pb := s.pending
	if pb == nil {
		s.eng.late.Add(1)
		return
	}
	i, ok := pb.taskIdx[ev.TaskID]
	if !ok || pb.decided[i] {
		s.eng.late.Add(1)
		return
	}
	pb.decided[i] = true
	tv := pb.ctx.Tasks[i]
	d := Decision{TaskID: tv.ID, Period: pb.ctx.Period, Cell: tv.Cell,
		Price: pb.prices[i], WorkerID: -1}
	if ev.Accept {
		pb.accepted[i] = true
		d.Accepted = true
		if s.augmentQuoted(pb, i, ev.at) {
			r := pb.inc.Matching().LeftTo[i]
			d.Served = true
			d.WorkerID = pb.workers[r].ID
			d.Revenue = tv.Distance * pb.prices[i]
		}
	}
	s.eng.emit(d, ev.at)
}

// augmentQuoted adds task l to the pending matching. Kuhn's augmenting path
// may flip intermediate pairs, silently reassigning tasks whose provisional
// worker was already announced — for each such task a superseding decision
// is emitted so decision-stream consumers always hold the committed pairing.
func (s *shard) augmentQuoted(pb *pendingBatch, l int, at time.Time) bool {
	m := pb.inc.Matching()
	pb.snap = append(pb.snap[:0], m.LeftTo...)
	if !pb.inc.TryAugment(l) {
		return false
	}
	for i, prev := range pb.snap {
		r := m.LeftTo[i]
		if i == l || r == prev || r < 0 {
			continue
		}
		tv := pb.ctx.Tasks[i]
		s.eng.emit(Decision{TaskID: tv.ID, Period: pb.ctx.Period, Cell: tv.Cell,
			Price: pb.prices[i], Accepted: true, Served: true,
			WorkerID: pb.workers[r].ID, Revenue: tv.Distance * pb.prices[i]}, at)
	}
	return true
}

// finalizePending closes the books on the quoted batch: unanswered quotes
// lapse as rejections (each gets a terminal unaccepted Decision so stream
// consumers can settle their open-quote state), the executor settles the
// committed matching and feeds the strategy its accept/reject outcomes,
// matched workers are consumed, and unmatched ones are released from the
// quoted hold.
func (s *shard) finalizePending(at time.Time) {
	pb := s.pending
	if pb == nil {
		return
	}
	s.pending = nil
	sc := &s.scratch
	lapsed := sc.ds[:0]
	for i, acc := range pb.accepted {
		if !acc && !pb.decided[i] {
			tv := pb.ctx.Tasks[i]
			lapsed = append(lapsed, Decision{TaskID: tv.ID, Period: pb.ctx.Period,
				Cell: tv.Cell, Price: pb.prices[i], WorkerID: -1})
		}
	}
	sc.ds = lapsed[:0]
	out := s.exec.SettleQuoted(s.strat, pb.ctx, pb.prices, pb.inc, pb.accepted)
	// Consume matched workers; release the batch's hold on every unconsumed
	// one: back to plain online in the lifecycle table, migratable again.
	for r := range pb.workers {
		if out.MatchedRights[r] {
			s.removeWorkerID(pb.workers[r].ID, RetireAssigned)
		} else {
			s.note(pb.workers[r].ID, noteReleased)
		}
	}
	s.eng.noteBatch(s.id, out)
	s.eng.emitAll(lapsed, at)
}

// workerOffline withdraws a worker from the pool and repairs any
// provisional assignment it holds in the pending batch.
func (s *shard) workerOffline(id int, at time.Time) {
	found := s.repairPending(id, at)
	if s.removeWorkerID(id, RetireOffline) || found {
		return
	}
	// Already settled here; the router's table had not heard yet.
	s.eng.late.Add(1)
}

// repairPending withdraws the worker from the pending batch's matcher, if a
// batch references it: the orphaned task is re-augmented if any path
// remains, and a superseding decision is emitted either way. Reports
// whether the batch referenced the worker.
func (s *shard) repairPending(id int, at time.Time) bool {
	pb := s.pending
	if pb == nil {
		return false
	}
	for r := range pb.workers {
		if pb.workers[r].ID != id || pb.inc.Removed(r) {
			continue
		}
		if freed := pb.inc.RemoveRight(r); freed >= 0 {
			tv := pb.ctx.Tasks[freed]
			d := Decision{TaskID: tv.ID, Period: pb.ctx.Period, Cell: tv.Cell,
				Price: pb.prices[freed], Accepted: true, WorkerID: -1}
			if s.augmentQuoted(pb, freed, at) {
				r2 := pb.inc.Matching().LeftTo[freed]
				d.Served = true
				d.WorkerID = pb.workers[r2].ID
				d.Revenue = tv.Distance * pb.prices[freed]
			}
			s.eng.emit(d, at)
		}
		return true
	}
	return false
}

// removeWorkerID tombstones the pool entry with the given ID and reports
// whether the worker was pooled. Assignment and expiry retirements are
// noted to the router; offline retirements are not (the router initiated
// those and already dropped the entry).
func (s *shard) removeWorkerID(id int, why RetireReason) bool {
	i, ok := s.poolFind(id)
	if !ok {
		return false
	}
	s.poolRemoveAt(i)
	s.eng.pooled.Add(-1)
	s.countRetire(why)
	if why != RetireOffline {
		s.note(id, noteRetire)
	}
	return true
}

// consume tombstones the given pool positions (the workers matched by a
// resolved batch).
func (s *shard) consume(positions []int) {
	for _, p := range positions {
		s.countRetire(RetireAssigned)
		s.note(s.pool[p].ID, noteRetire)
		s.poolRemoveAt(p)
	}
	s.eng.pooled.Add(-int64(len(positions)))
}
