package engine

import (
	"fmt"

	"spatialcrowd/internal/wire"
)

// The engine's public event kinds and internal/wire's are pinned to the same
// values: one canonical byte-level encoding serves the WAL and the network
// ingest frames. These guards turn an accidental renumbering on either side
// into a compile error.
const (
	_ = uint8(KindTaskArrival) - uint8(wire.KindTaskArrival)
	_ = uint8(wire.KindTaskArrival) - uint8(KindTaskArrival)
	_ = uint8(KindTick) - uint8(wire.KindTick)
	_ = uint8(wire.KindTick) - uint8(KindTick)
)

// Wire converts a public event to its canonical codec form (internal/wire).
// Runtime-only fields (the arrival stamp, migration and control payloads)
// do not travel; internal kinds have no wire form and panic — Submit
// validates kinds before anything reaches a codec.
func (ev Event) Wire() wire.Event {
	if ev.Kind == 0 || ev.Kind > KindTick {
		panic(fmt.Sprintf("engine: event kind %d has no wire form", ev.Kind))
	}
	return wire.Event{
		Kind:     wire.Kind(ev.Kind),
		Task:     ev.Task,
		Worker:   ev.Worker,
		WorkerID: ev.WorkerID,
		Loc:      ev.Loc,
		TaskID:   ev.TaskID,
		Accept:   ev.Accept,
		Period:   ev.Period,
	}
}

// EventFromWire converts a decoded wire event back to the engine's form:
// the inverse of Event.Wire for every public kind (wire.DecodeEvent already
// rejected unknown kinds).
func EventFromWire(w wire.Event) Event {
	return Event{
		Kind:     Kind(w.Kind),
		Task:     w.Task,
		Worker:   w.Worker,
		WorkerID: w.WorkerID,
		Loc:      w.Loc,
		TaskID:   w.TaskID,
		Accept:   w.Accept,
		Period:   w.Period,
	}
}

// DecodeWireEvents decodes a frame payload of concatenated wire-encoded
// events straight into engine events appended to dst — the batch-ingest hot
// path. Decoding through a single stack-resident wire.Event (instead of an
// intermediate slice) halves the memory traffic per event; dst is reused by
// callers so steady-state ingest allocates nothing here. A malformed event
// ends the decode with an error; the events decoded before it are returned
// with it, so a caller can keep the prefix or drop the whole payload.
func DecodeWireEvents(payload []byte, dst []Event) ([]Event, error) {
	for off := 0; off < len(payload); {
		w, n, err := wire.DecodeEvent(payload[off:])
		if err != nil {
			return dst, fmt.Errorf("payload offset %d: %w", off, err)
		}
		dst = append(dst, EventFromWire(w))
		off += n
	}
	return dst, nil
}
