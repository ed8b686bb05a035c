package engine

// Worker lifecycle. Every worker the engine has ever admitted moves through
// a small state machine:
//
//	offline ──WorkerOnline──▶ online ──quote()──▶ quoted-held
//	   ▲                        │  ▲                  │
//	   │                        │  └──released────────┤ (batch finalized,
//	   │                        │                     │  worker unmatched)
//	   │        WorkerMove ─────┘ (same cell/shard:   │
//	   │        in-place; cross-shard: retire-in-old/ │
//	   │        admit-in-new handshake)               │
//	   │                        │                     │
//	   └──────── retired ◀──────┴─────────────────────┘
//	             (assigned · expired · offline)
//
// The router owns the worker table (workerTable), inline or on its own
// goroutine alike: it is consulted on every WorkerOnline (which shard may
// hold a stale copy — the ghost-worker hazard), WorkerOffline, and
// WorkerMove (shard targeting). Shards report pool transitions back at
// batch grain as lifecycleNotes, so the table can name a worker its shard
// already retired, for a tick or two; the synchronous migration handshake
// gives the router ground truth at the one point staleness could create
// double supply. No count depends on that staleness: an event naming a
// worker the table no longer tracks is late, and one it still tracks goes
// to the shard, which counts it — late again if that shard already
// retired the worker, a duplicate online only if it still pools a copy —
// so the ledger is the same however the goroutines were scheduled.

import "fmt"

// WorkerState is one stage of the worker lifecycle.
type WorkerState uint8

const (
	// StateOffline is the implicit state of a worker the engine is not
	// tracking (never seen, or retired and forgotten).
	StateOffline WorkerState = iota
	// StateOnline means the worker sits in exactly one shard's pool,
	// available for the next pricing batch.
	StateOnline
	// StateQuotedHeld means a pending quoted batch references the worker:
	// it may hold a provisional assignment, so it is pinned to its shard
	// (migration applies the location in place instead of moving it).
	StateQuotedHeld
	// StateAssigned means a finalized batch consumed the worker.
	StateAssigned
	// StateRetired means the worker left the market (offline or expired).
	StateRetired
)

// String names the state for diagnostics.
func (s WorkerState) String() string {
	switch s {
	case StateOffline:
		return "offline"
	case StateOnline:
		return "online"
	case StateQuotedHeld:
		return "quoted-held"
	case StateAssigned:
		return "assigned"
	case StateRetired:
		return "retired"
	}
	return fmt.Sprintf("WorkerState(%d)", uint8(s))
}

// RetireReason says why a worker left a shard's pool.
type RetireReason uint8

const (
	// RetireAssigned: consumed by a finalized assignment.
	RetireAssigned RetireReason = iota
	// RetireExpired: availability duration lapsed.
	RetireExpired
	// RetireOffline: an explicit WorkerOffline event.
	RetireOffline
)

// lifecycleNote is one pool transition a shard reports to the router at
// batch grain. held/released notes bracket a quoted batch; retire notes say
// the worker left the pool (the reason is counted at the shard). Notes are
// stale by up to one tick, so each carries enough provenance for the router
// to reject notes about a dead incarnation of the ID: the reporting shard,
// and the tick period the shard was processing. A note only applies while the worker is still attributed
// to that shard AND was last (re-)admitted strictly before that period — a
// worker that retired and re-onlined in between keeps its fresh entry.
type lifecycleNote struct {
	id     int
	shard  int
	period int
	kind   noteKind
}

type noteKind uint8

const (
	noteRetire noteKind = iota
	noteHeld
	noteReleased
)

// workerEntry is the router's view of one tracked worker. seen is the
// router's period when the worker was last admitted (online or migration) —
// the epoch that fences off stale lifecycle notes.
type workerEntry struct {
	shard int
	state WorkerState
	seen  int
}

// workerTable is the router-owned worker registry: worker ID -> owning shard
// and lifecycle state. Only the router touches it (no locks); Stats reads
// the size and held count through the engine's gauges. Entries are deleted
// on retirement, so the table is bounded by the live worker count.
type workerTable struct {
	m    map[int]workerEntry
	held int // entries currently in StateQuotedHeld
}

func newWorkerTable() *workerTable {
	return &workerTable{m: make(map[int]workerEntry)}
}

// get returns the entry for id, if tracked.
func (t *workerTable) get(id int) (workerEntry, bool) {
	e, ok := t.m[id]
	return e, ok
}

// set installs an entry, keeping the held gauge in step.
func (t *workerTable) set(id int, e workerEntry) {
	if prev, ok := t.m[id]; ok && prev.state == StateQuotedHeld {
		t.held--
	}
	if e.state == StateQuotedHeld {
		t.held++
	}
	t.m[id] = e
}

// online records id as online in shard at the router's current period,
// returning the previous entry when the worker was already tracked (the
// caller retires any stale copy from its old shard).
func (t *workerTable) online(id, shard, period int) (workerEntry, bool) {
	prev, dup := t.m[id]
	t.set(id, workerEntry{shard: shard, state: StateOnline, seen: period})
	return prev, dup
}

// migrate re-points id to a new shard after a completed cross-shard
// migration handshake.
func (t *workerTable) migrate(id, shard, period int) {
	t.set(id, workerEntry{shard: shard, state: StateOnline, seen: period})
}

// retire forgets id. The caller has already checked shard attribution.
func (t *workerTable) retire(id int) {
	if e, ok := t.m[id]; ok && e.state == StateQuotedHeld {
		t.held--
	}
	delete(t.m, id)
}

// apply folds one shard-reported note into the table. A note is applied
// only if the worker is still attributed to the reporting shard and was
// admitted strictly before the note's period; anything else means the
// router has since re-pointed or re-admitted the worker (duplicate online,
// migration, retire-then-re-online) and the note describes a dead copy.
func (t *workerTable) apply(n lifecycleNote) bool {
	e, ok := t.m[n.id]
	if !ok || e.shard != n.shard || e.seen >= n.period {
		return false
	}
	switch n.kind {
	case noteRetire:
		t.retire(n.id)
	case noteHeld:
		e.state = StateQuotedHeld
		t.set(n.id, e)
	case noteReleased:
		e.state = StateOnline
		t.set(n.id, e)
	}
	return true
}

// size returns the number of tracked workers.
func (t *workerTable) size() int { return len(t.m) }

// heldCount returns the number of tracked workers in StateQuotedHeld.
func (t *workerTable) heldCount() int { return t.held }
