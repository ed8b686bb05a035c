package engine

import (
	"time"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// Kind discriminates the event union.
type Kind uint8

const (
	// KindTaskArrival announces a new spatial task. Its origin cell routes
	// it to a shard; it joins that shard's open pricing batch.
	KindTaskArrival Kind = iota + 1
	// KindWorkerOnline adds a worker to the pool of the shard owning the
	// worker's current cell.
	KindWorkerOnline
	// KindWorkerOffline withdraws a worker (by ID) from its pool; if the
	// worker holds a provisional assignment in an in-flight batch, the
	// matching is repaired around it.
	KindWorkerOffline
	// KindWorkerMove relocates an online worker (by ID) to a new position.
	// Within a shard the pool entry moves in place; when the new position's
	// cell belongs to a different shard, the router migrates the worker with
	// a retire-in-old-shard / admit-in-new-shard handshake so no ghost copy
	// survives. A worker referenced by a pending quoted batch is pinned: the
	// location updates in place and the worker stays in its shard until the
	// batch finalizes.
	KindWorkerMove
	// KindAcceptDecision is a requester's reply to a price quote (only
	// meaningful when the engine runs with AutoDecide disabled).
	KindAcceptDecision
	// KindTick advances the engine clock to a period; crossing a window
	// boundary closes and prices the open batch of every shard.
	KindTick

	// Internal kinds (Submit rejects anything above KindTick; only the
	// router fabricates these).

	// kindEvict removes a stale pool copy from a shard: the
	// retire-in-old-shard half of a duplicate online, counted as the
	// duplicate only if the shard still pooled the copy. A provisional
	// assignment held by the evicted copy is repaired exactly like a worker
	// going offline.
	kindEvict
	// kindAdmit inserts a migrated worker into its new shard's pool: the
	// admit-in-new-shard half of the cross-shard migration handshake.
	kindAdmit
	// kindCheckpoint barriers a checkpoint through the router and shards:
	// each recipient serializes its state into the control payload and
	// acknowledges. Riding the event FIFO guarantees the snapshot reflects
	// every previously submitted event.
	kindCheckpoint
	// kindRestore installs a previously checkpointed state, before any
	// market event has been submitted.
	kindRestore
	// kindBatch is the envelope every admitted chunk of public events crosses
	// the router channel in: one send for N events, unpacked by the router in
	// order (see batch.go).
	kindBatch
)

// Event is one element of the engine's input stream. Use the constructors;
// the zero Event is invalid.
type Event struct {
	Kind     Kind
	Task     market.Task   // KindTaskArrival
	Worker   market.Worker // KindWorkerOnline, kindAdmit
	WorkerID int           // KindWorkerOffline, KindWorkerMove, kindEvict
	Loc      geo.Point     // KindWorkerMove: the worker's new position
	TaskID   int           // KindAcceptDecision
	Accept   bool          // KindAcceptDecision
	Period   int           // KindTick

	at  time.Time  // stamped by Submit; decision latencies measure from here
	mig *migration // router-owned cross-shard migration handshake
	ctl any        // checkpoint/restore control payload (see checkpoint.go)
}

// migration carries the reply channel of the synchronous migrate-out
// request the router sends to a worker's current shard. The shard answers
// on reply before processing its next event; the router blocks until then,
// so a migration is fully resolved (retired from the old shard, ready to
// admit into the new one) before any later event routes — the ordering
// guarantee that keeps sharded runs deterministic for a fixed input.
type migration struct {
	reply chan migrateReply
}

type migrateReply struct {
	worker market.Worker // the migrating worker, location updated (ok && !pinned)
	ok     bool          // the old shard still pooled the worker
	pinned bool          // a pending quoted batch holds the worker: moved in place, not migrated
}

// TaskArrival returns a task-arrival event.
func TaskArrival(t market.Task) Event { return Event{Kind: KindTaskArrival, Task: t} }

// WorkerOnline returns a worker-online event.
func WorkerOnline(w market.Worker) Event { return Event{Kind: KindWorkerOnline, Worker: w} }

// WorkerOffline returns a worker-offline event for the given worker ID.
func WorkerOffline(id int) Event { return Event{Kind: KindWorkerOffline, WorkerID: id} }

// WorkerMove returns a worker-relocation event: the worker with the given ID
// is now at to.
func WorkerMove(id int, to geo.Point) Event {
	return Event{Kind: KindWorkerMove, WorkerID: id, Loc: to}
}

// AcceptDecision returns a requester's accept/reject reply for a quoted task.
func AcceptDecision(taskID int, accept bool) Event {
	return Event{Kind: KindAcceptDecision, TaskID: taskID, Accept: accept}
}

// Tick returns a clock-advance event to the given period.
func Tick(period int) Event { return Event{Kind: KindTick, Period: period} }

// Decision is one element of the engine's output stream: a price quote, a
// requester outcome, or a (re)assignment for a single task.
type Decision struct {
	TaskID int
	Period int // period of the batch that priced the task
	Cell   int
	Price  float64
	// Quoted marks a price offer awaiting the requester's AcceptDecision
	// (AutoDecide disabled). Accepted/Served are not meaningful on quotes.
	Quoted   bool
	Accepted bool
	// Served reports a provisional worker assignment. In quoted mode it can
	// be superseded by a later Decision for the same task — when the
	// assigned worker goes offline before the batch finalizes, or when a
	// later acceptance's augmenting path reassigns the task to a different
	// worker. The last decision per task is the committed pairing; engine
	// statistics count only the finalized matching.
	Served   bool
	WorkerID int // assigned worker, or -1
	Revenue  float64
	// Latency is the time from the submission of the triggering event
	// (the closing Tick or the AcceptDecision) to this decision.
	Latency time.Duration
}
