package engine

import (
	"fmt"

	"spatialcrowd/internal/market"
)

// Replay feeds a complete market instance into the engine as the canonical
// event stream: for every period a Tick, then the period's worker arrivals,
// then its task arrivals, and a final Tick past the last window boundary so
// the last batch flushes. It returns the number of events submitted.
//
// On a deterministic AutoDecide engine this is the streaming equivalent of
// sim.Run on the same instance.
func Replay(e *Engine, in *market.Instance) (int, error) {
	return ReplayMobility(e, in, nil)
}

// ReplayMobility is Replay with a mobility trace interleaved: each move of
// period t becomes a KindWorkerMove event submitted right after the Tick
// that closes period t's batch — the same ordering as the offline
// simulator, which repositions workers after a period's assignment. A
// deterministic AutoDecide engine in cell-index-graph mode replaying
// sim.Run's own recorded moves (sim.Config.OnMove) reproduces the
// simulator's revenue exactly.
func ReplayMobility(e *Engine, in *market.Instance, moves []market.Move) (int, error) {
	return ReplayWith(e, in, ReplayOpts{Moves: moves})
}

// ReplayOpts parameterizes ReplayWith and StreamEvents.
type ReplayOpts struct {
	// Moves is an optional mobility trace interleaved as in ReplayMobility.
	Moves []market.Move
	// From starts the replay at this period instead of 0, skipping every
	// earlier event: the resume half of an interrupted replay. After
	// Engine.Restore, From = RestoredPeriod() + 1 continues the stream
	// exactly where the checkpoint left off.
	From int
	// Until, when positive and below the instance horizon, stops the stream
	// after period Until-1's events WITHOUT the final window-flushing Tick:
	// the open window stays pending, exactly the state an interrupted live
	// ingest leaves behind. A checkpoint taken then restores with
	// RestoredPeriod() == Until-1, and resuming with From = Until replays
	// the remainder — the seam the network server's drain test exercises.
	// Zero (or >= Periods) streams the whole instance with the final Tick.
	Until int
	// AfterPeriod, when set, runs after each period's events have been
	// submitted — the hook cmd/serve uses to write periodic checkpoints. A
	// returned error aborts the replay.
	AfterPeriod func(period int) error
	// SkipEvents suppresses the first N emitted events without changing the
	// stream's shape: the event-exact resume half of WAL recovery. Where
	// From resumes at a period boundary (a checkpoint's granularity),
	// SkipEvents = Stats().Events resumes mid-period, exactly past what the
	// log replayed — the stream is deterministic, so skipping what the
	// engine already holds continues the trace without loss or duplication.
	// AfterPeriod hooks still fire for fully-skipped periods.
	SkipEvents int
}

// ReplayWith is the general replay driver: Replay and ReplayMobility are
// thin wrappers over it. It submits the canonical stream of StreamEvents
// one batch per period: events collect until the next period's Tick (or an
// AfterPeriod hook, which must see its period applied) and go in together.
func ReplayWith(e *Engine, in *market.Instance, opts ReplayOpts) (int, error) {
	n := 0
	var batch []Event
	flush := func() error {
		k, err := e.admit(batch, true)
		n += k
		batch = batch[:0]
		if err != nil {
			return fmt.Errorf("engine: replay event %d: %w", n+1, err)
		}
		return nil
	}
	if hook := opts.AfterPeriod; hook != nil {
		opts.AfterPeriod = func(period int) error {
			if err := flush(); err != nil {
				return err
			}
			return hook(period)
		}
	}
	err := StreamEvents(in, e.Window(), opts, func(ev Event) error {
		if ev.Kind == KindTick {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, ev)
		return nil
	})
	if err == nil {
		err = flush()
	}
	return n, err
}

// StreamEvents generates the canonical event stream of a market instance —
// the exact order ReplayWith submits — and hands each event to emit. This
// is the single definition of "the trace of an instance": ReplayWith
// consumes it, and so do the loopback clients that post it through
// bench/loadgen (cmd/serve -selftest and the server tests), which is what
// makes HTTP-ingested revenue comparable bit-for-bit against an in-process
// replay of the same instance.
//
// window is the engine's pricing window in periods (Engine.Window); it
// positions the final flushing Tick past the last window boundary.
func StreamEvents(in *market.Instance, window int, opts ReplayOpts, emit func(Event) error) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if window <= 0 {
		window = 1
	}
	if opts.SkipEvents > 0 {
		inner := emit
		skip := opts.SkipEvents
		emit = func(ev Event) error {
			if skip > 0 {
				skip--
				return nil
			}
			return inner(ev)
		}
	}
	tasksByPeriod := in.TasksByPeriod()
	arrivals := in.WorkersByStart()
	movesByPeriod := make(map[int][]market.Move, len(opts.Moves))
	for _, m := range opts.Moves {
		movesByPeriod[m.Period] = append(movesByPeriod[m.Period], m)
	}
	from := opts.From
	if from < 0 {
		from = 0
	}
	until := in.Periods
	partial := false
	if opts.Until > 0 && opts.Until < in.Periods {
		until = opts.Until
		partial = true
	}
	for t := from; t < until; t++ {
		if err := emit(Tick(t)); err != nil {
			return err
		}
		for _, m := range movesByPeriod[t-1] {
			if err := emit(WorkerMove(m.WorkerID, m.To)); err != nil {
				return err
			}
		}
		for _, w := range arrivals[t] {
			if err := emit(WorkerOnline(w)); err != nil {
				return err
			}
		}
		for _, task := range tasksByPeriod[t] {
			if err := emit(TaskArrival(task)); err != nil {
				return err
			}
		}
		if opts.AfterPeriod != nil {
			if err := opts.AfterPeriod(t); err != nil {
				return err
			}
		}
	}
	if partial {
		// A truncated stream leaves the open window pending on purpose; the
		// resumed stream's first Tick closes it.
		return nil
	}
	final := ((in.Periods + window - 1) / window) * window
	if err := emit(Tick(final)); err != nil {
		return err
	}
	// The last periods' moves land after the final batch closed; submit
	// them anyway so lifecycle accounting sees the full trace.
	for t := in.Periods - 1; t < final; t++ {
		for _, m := range movesByPeriod[t] {
			if err := emit(WorkerMove(m.WorkerID, m.To)); err != nil {
				return err
			}
		}
	}
	return nil
}
