package engine

// Durable write-ahead logging for the event stream. With Config.WAL set,
// every accepted public event is framed through a deterministic binary
// codec and appended to the log BEFORE it is applied — by admitChunk in
// batch.go, the one place that appends events — under the engine's ingest
// mutex, so the log order is exactly the apply order. Crash recovery is
// then RecoverWAL: restore the last checkpoint (which records the LSN it
// covers), replay the WAL tail past that LSN through the same admitChunk,
// and — because the engine is bit-deterministic for a fixed event order —
// the recovered revenue and lifecycle ledger match the uninterrupted run
// exactly. The crash-injection harness in walcrash_test.go proves this for
// every injected fault point.

import (
	"fmt"
	"io"
	"time"

	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/wire"
)

// encodeChunk serializes evs into WAL record payloads, one per event, using
// the shared canonical codec (internal/wire): fixed-width little-endian with
// floats as IEEE-754 bits, so a replayed event is bit-identical to the
// submitted one — the property the exact-recovery guarantee rests on. The
// same bytes are what a binary ingest frame carries, so WAL and network
// agree on every event's one encoding. The payloads alias e.walBuf and live
// until the next call; callers hold e.mu.
func (e *Engine) encodeChunk(evs []Event) [][]byte {
	buf := e.walBuf[:0]
	for i := range evs {
		// admit validated every kind, and Wire panics on the rest, so the
		// codec cannot refuse one.
		buf, _ = wire.AppendEvent(buf, evs[i].Wire())
	}
	recs := e.walRecs[:0]
	for i, off := 0, 0; i < len(evs); i++ {
		n, _ := wire.EventLen(wire.Kind(evs[i].Kind))
		recs = append(recs, buf[off:off+n:off+n])
		off += n
	}
	e.walBuf, e.walRecs = buf, recs
	return recs
}

// decodeEvent is encodeChunk's inverse for one record. The wire codec
// validates the tag and the frame length, so a corrupt record fails the
// replay descriptively instead of reviving a malformed event; a WAL record
// must hold exactly one event.
func decodeEvent(b []byte) (Event, error) {
	w, n, err := wire.DecodeEvent(b)
	if err != nil {
		return Event{}, fmt.Errorf("engine: wal event record: %w", err)
	}
	if n != len(b) {
		return Event{}, fmt.Errorf("engine: wal event record has %d trailing bytes", len(b)-n)
	}
	return EventFromWire(w), nil
}

// RecoverWAL rebuilds state after a crash: restore the checkpoint read from
// snapshot (nil when no checkpoint survived), then decode and re-apply the
// WAL tail past the checkpoint's recorded LSN. The engine must be freshly
// created with Config.WAL set to the (re)opened log; until RecoverWAL runs,
// an engine attached to a non-empty log refuses Submit, so un-replayed
// records can never be silently overwritten by diverging new appends.
// Returns the number of tail events replayed.
func (e *Engine) RecoverWAL(snapshot io.Reader) (int, error) {
	if e.wal == nil {
		return 0, fmt.Errorf("engine: RecoverWAL needs Config.WAL")
	}
	// Held throughout, so a submitter or a second RecoverWAL waits for the
	// whole tail to be in before it sees walReady or the event count.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.events.Load() != 0 {
		return 0, fmt.Errorf("engine: RecoverWAL needs a fresh engine (events already submitted)")
	}
	if e.restored {
		return 0, fmt.Errorf("engine: RecoverWAL needs a fresh engine (already restored)")
	}
	from := uint64(1)
	if snapshot != nil {
		if err := e.Restore(snapshot); err != nil {
			return 0, err
		}
		from = e.restoredWALLSN + 1
	}
	// The tail goes through admitChunk like any submitted batch, with no log
	// to append to: applied in log order, waiting out the router's budget.
	replayed := 0
	buf := make([]Event, 0, batchChunk)
	flush := func() {
		for rest := buf; len(rest) > 0; {
			// Without a log the only refusal is ErrBusy.
			now := time.Now() //lint:detsource replayed arrival stamp feeds latency metrics only
			n, _ := e.admitChunk(rest, now, nil)
			if n == 0 {
				time.Sleep(50 * time.Microsecond) // back-pressure pacing, as in admit
			}
			rest = rest[n:]
			replayed += n
		}
		buf = buf[:0]
	}
	err := e.wal.Replay(from, func(rec wal.Record) error {
		if rec.Type != wal.RecEvent {
			return nil // checkpoint markers and future record types carry no event
		}
		ev, err := decodeEvent(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: wal record %d: %w", rec.LSN, err)
		}
		if buf = append(buf, ev); len(buf) == cap(buf) {
			flush()
		}
		return nil
	})
	if err != nil {
		return replayed, err
	}
	flush()
	e.walReady = true
	return replayed, nil
}

// WALLastLSN reports the LSN of the last event appended to the engine's
// WAL (0 without a WAL or before any append).
func (e *Engine) WALLastLSN() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.LastLSN()
}

// WALDurableLSN reports the last WAL LSN covered by a successful fsync.
func (e *Engine) WALDurableLSN() uint64 {
	if e.wal == nil {
		return 0
	}
	return e.wal.DurableLSN()
}

// SyncWAL forces the WAL's durable prefix up to the last append: the group
// commit barrier the network server places before acknowledging an ingest
// response, so "accepted" always means "survives a crash". A failure wraps
// ErrWAL. No-op without a WAL.
func (e *Engine) SyncWAL() error {
	if e.wal == nil {
		return nil
	}
	if err := e.wal.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %w", ErrWAL, err)
	}
	return nil
}

// WALStats snapshots the attached log's gauges (zero without a WAL).
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}
