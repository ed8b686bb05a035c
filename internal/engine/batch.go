package engine

// The engine's one ingest path. Every submission is a batch: Submit and
// TrySubmit are batches of one, SubmitBatch and TrySubmitBatch take a slice,
// ReplayWith submits one batch per period and RecoverWAL replays the log in
// chunks. admit turns a batch into chunks of at most batchChunk events and
// runs each through admitChunk: under one mutex, budget -> append to the WAL
// -> apply. Because append and apply happen in that order under that lock,
// the log order is the apply order and a stream produces the same decisions,
// ledger and log bytes however it was cut into batches.
//
// Admission is bounded in events. A chunk crosses the router channel as one
// kindBatch envelope, so the channel's slot count says nothing about how
// much is buffered; batchPending counts the events of envelopes the router
// has not finished dispatching, and a call is admitted at most
//
//	cap(in) - batchPending
//
// events. A batch that does not fit is accepted as a prefix: the count comes
// back alongside ErrBusy and is the caller's resume cursor (the HTTP
// server's 429 protocol hands it to clients unchanged). An inline engine
// applies in the caller's goroutine and has no budget.

import (
	"errors"
	"fmt"
	"time"

	"spatialcrowd/internal/wal"
)

// batchChunk caps how many events one envelope carries. A larger submitted
// batch is split across envelopes: the router interleaves Tick broadcasts
// and checkpoint barriers between envelopes, so one huge batch cannot stall
// the control plane, and pooled envelope slices stay small enough to recycle.
const batchChunk = 1024

// Submit enqueues one event, blocking through back-pressure. An inline
// engine processes the event before Submit returns; otherwise it is handed
// to the router goroutine.
func (e *Engine) Submit(ev Event) error {
	evs := [1]Event{ev}
	_, err := e.admit(evs[:], true)
	return err
}

// TrySubmit is Submit without blocking: when the router's event budget is
// spent it returns ErrBusy and the event is not accepted. This is the
// admission-control seam: a caller that must not block (a network handler)
// converts ErrBusy into back-pressure toward its own client. An inline
// engine never reports ErrBusy.
func (e *Engine) TrySubmit(ev Event) error {
	evs := [1]Event{ev}
	_, err := e.admit(evs[:], false)
	return err
}

// SubmitBatch submits evs in order, blocking until every event is accepted
// (or the engine closes or the WAL fails). It never returns ErrBusy.
func (e *Engine) SubmitBatch(evs []Event) error {
	_, err := e.admit(evs, true)
	return err
}

// TrySubmitBatch submits up to len(evs) events and reports how many were
// accepted — always a prefix of evs, applied in order. When the router's
// budget cannot take the whole batch it accepts what fits and returns the
// count with ErrBusy (0 when nothing fit), so the caller resumes from
// evs[accepted:] after backing off. With a WAL attached every accepted
// event is logged before the call returns. An invalid kind anywhere in evs
// rejects the whole batch before any event is accepted.
func (e *Engine) TrySubmitBatch(evs []Event) (int, error) {
	return e.admit(evs, false)
}

// admit is the body of every submit entry point: validate the kinds, then
// admit chunk after chunk until evs is spent, a chunk is refused, or — when
// block is set — for as long as the budget takes to free up.
func (e *Engine) admit(evs []Event, block bool) (int, error) {
	for i := range evs {
		if evs[i].Kind == 0 || evs[i].Kind > KindTick {
			return 0, fmt.Errorf("engine: event %d has invalid kind %d", i, evs[i].Kind)
		}
	}
	accepted := 0
	for accepted < len(evs) {
		if e.closed.Load() {
			return accepted, ErrClosed
		}
		now := time.Now() //lint:detsource arrival stamp feeds latency metrics; replay decisions carry event-time periods
		e.mu.Lock()
		n, err := e.admitChunk(evs[accepted:], now, e.wal)
		e.mu.Unlock()
		accepted += n
		switch {
		case err == nil:
		case err != ErrBusy || !block:
			return accepted, err
		case n == 0:
			// Budget exhausted: wait for the router to drain. The sleep is
			// back-pressure pacing, not a correctness timing source.
			time.Sleep(50 * time.Microsecond)
		}
	}
	return accepted, nil
}

// admitChunk admits the longest prefix of evs that fits one envelope and the
// router's event budget, and returns its length; ErrBusy says the budget cut
// it short. Callers hold e.mu, so no other submitter can spend the same
// budget or slip between a record and its application. It is the only place
// events are appended to the WAL: log is e.wal for submitters and nil for
// RecoverWAL, whose events are already in it. The admitted prefix goes to
// the log as one batch; a failed append truncates it to the records the log
// holds, keeping log and applied stream identical.
func (e *Engine) admitChunk(evs []Event, now time.Time, log *wal.Log) (int, error) {
	if log != nil && !e.walReady {
		return 0, errors.New("engine: WAL holds unreplayed records; run RecoverWAL before submitting")
	}
	n := min(len(evs), batchChunk)
	var err error
	if e.in != nil {
		if free := cap(e.in) - int(e.batchPending.Load()); free < n {
			n, err = max(free, 0), ErrBusy
		}
	}
	if log != nil && n > 0 {
		if _, logged, aerr := log.AppendBatch(wal.RecEvent, e.encodeChunk(evs[:n])); aerr != nil {
			n, err = logged, fmt.Errorf("%w: append: %w", ErrWAL, aerr)
		}
	}
	if n > 0 {
		e.apply(evs[:n], now)
	}
	return n, err
}

// apply hands an admitted, non-empty chunk to the router, in order and
// stamped with its arrival time: dispatched right here when the engine runs
// inline, copied into one pooled envelope for the router goroutine
// otherwise. Callers hold e.mu and have checked the budget, so fewer than
// cap(in) envelopes are queued and the send does not wait behind other
// submitters. Checkpoint and Restore put their control events on the same
// channel without e.mu; their contract forbids running beside a submitter,
// and a caller who breaks it makes this send wait for the router to take
// one event, nothing worse.
func (e *Engine) apply(evs []Event, now time.Time) {
	n := int64(len(evs))
	e.events.Add(n)
	if e.in == nil {
		for _, ev := range evs {
			ev.at = now
			e.dispatch(ev)
		}
		return
	}
	p := e.getBatchSlice(len(evs))
	*p = append(*p, evs...)
	for i := range *p {
		(*p)[i].at = now
	}
	e.batchPending.Add(n)
	e.in <- Event{Kind: kindBatch, ctl: p}
}

// dispatchBatch unpacks one envelope in the router goroutine: events
// dispatch in submission order, then the envelope's budget is released and
// its slice recycled.
func (e *Engine) dispatchBatch(ev Event) {
	p := ev.ctl.(*[]Event)
	for _, sub := range *p {
		e.dispatch(sub)
	}
	e.batchPending.Add(-int64(len(*p)))
	e.putBatchSlice(p)
}

// getBatchSlice returns an empty pooled envelope slice with room for n
// events. Slices are sized by need, not to batchChunk: a caller submitting
// single events can have cap(in) envelopes outstanding at once.
func (e *Engine) getBatchSlice(n int) *[]Event {
	p, ok := e.batchPool.Get().(*[]Event)
	if !ok {
		p = new([]Event)
	}
	if cap(*p) < n {
		*p = make([]Event, 0, n)
	}
	return p
}

func (e *Engine) putBatchSlice(p *[]Event) {
	*p = (*p)[:0]
	e.batchPool.Put(p)
}
