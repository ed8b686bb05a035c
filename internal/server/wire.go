package server

import (
	"fmt"
	"math"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// Wire event types: the "type" discriminator of WireEvent. They mirror the
// engine's public event kinds one-to-one; the engine's internal kinds
// (evict, admit, checkpoint, restore) have no wire form on purpose — a
// network client must not be able to fabricate control events.
const (
	WireTaskArrival   = "task"
	WireWorkerOnline  = "worker_online"
	WireWorkerOffline = "worker_offline"
	WireWorkerMove    = "worker_move"
	WireDecisionReply = "decision"
	WireTick          = "tick"
)

// WirePoint is the JSON form of a geo.Point.
type WirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func (p WirePoint) point() geo.Point   { return geo.Point{X: p.X, Y: p.Y} }
func wirePoint(p geo.Point) *WirePoint { return &WirePoint{X: p.X, Y: p.Y} }

// WireTask is the JSON form of a market.Task. Valuation rides along only
// for replay/selftest traffic against an AutoDecide tenant (the simulated
// requester oracle lives server-side there); live quoted-mode clients send
// 0 and answer quotes themselves with "decision" events.
type WireTask struct {
	ID        int        `json:"id"`
	Period    int        `json:"period"`
	Origin    WirePoint  `json:"origin"`
	Dest      *WirePoint `json:"dest,omitempty"`
	Distance  float64    `json:"distance"`
	Valuation float64    `json:"valuation,omitempty"`
}

// WireWorker is the JSON form of a market.Worker.
type WireWorker struct {
	ID       int       `json:"id"`
	Period   int       `json:"period"`
	Loc      WirePoint `json:"loc"`
	Radius   float64   `json:"radius"`
	Duration int       `json:"duration,omitempty"`
}

// WireEvent is the JSON wire form of one engine event — the unit of the
// single-shot POST body and of each NDJSON ingest line.
type WireEvent struct {
	Type string `json:"type"`

	Task   *WireTask   `json:"task,omitempty"`   // type "task"
	Worker *WireWorker `json:"worker,omitempty"` // type "worker_online"

	WorkerID int        `json:"worker_id,omitempty"` // "worker_offline", "worker_move"
	To       *WirePoint `json:"to,omitempty"`        // "worker_move"

	TaskID int  `json:"task_id,omitempty"` // "decision"
	Accept bool `json:"accept,omitempty"`  // "decision"

	Period int `json:"period,omitempty"` // "tick"
}

// Event converts the wire form into an engine event, validating the
// per-type required payload.
func (w *WireEvent) Event() (engine.Event, error) {
	ev := engine.Event{WorkerID: w.WorkerID, TaskID: w.TaskID, Accept: w.Accept, Period: w.Period}
	has := payloads{task: w.Task != nil, worker: w.Worker != nil, to: w.To != nil}
	if has.task {
		ev.Task = market.Task{
			ID:        w.Task.ID,
			Period:    w.Task.Period,
			Origin:    w.Task.Origin.point(),
			Distance:  w.Task.Distance,
			Valuation: w.Task.Valuation,
		}
		if w.Task.Dest != nil {
			ev.Task.Dest = w.Task.Dest.point()
		}
	}
	if has.worker {
		ev.Worker = market.Worker{
			ID:       w.Worker.ID,
			Period:   w.Worker.Period,
			Loc:      w.Worker.Loc.point(),
			Radius:   w.Worker.Radius,
			Duration: w.Worker.Duration,
		}
	}
	if has.to {
		ev.Loc = w.To.point()
	}
	if err := finish(&ev, []byte(w.Type), has); err != nil {
		return engine.Event{}, err
	}
	return ev, nil
}

// payloads records which of WireEvent's pointer payloads a decoded event
// carried; their fields travel in the engine.Event being built.
type payloads struct{ task, worker, to bool }

// finish turns the fields of one decoded wire event, gathered in ev (Task,
// Worker, WorkerID, Loc for "to", TaskID, Accept, Period), into the engine
// event of wire type typ, keeping the fields that type uses. It checks the
// type's required payload and validates the result: the one conversion
// behind WireEvent.Event and the NDJSON scanner.
func finish(ev *engine.Event, typ []byte, has payloads) error {
	switch string(typ) {
	case WireTaskArrival:
		if !has.task {
			return fmt.Errorf(`event type %q needs a "task" payload`, WireTaskArrival)
		}
		*ev = engine.TaskArrival(ev.Task)
	case WireWorkerOnline:
		if !has.worker {
			return fmt.Errorf(`event type %q needs a "worker" payload`, WireWorkerOnline)
		}
		*ev = engine.WorkerOnline(ev.Worker)
	case WireWorkerOffline:
		*ev = engine.WorkerOffline(ev.WorkerID)
	case WireWorkerMove:
		if !has.to {
			return fmt.Errorf(`event type %q needs a "to" position`, WireWorkerMove)
		}
		*ev = engine.WorkerMove(ev.WorkerID, ev.Loc)
	case WireDecisionReply:
		*ev = engine.AcceptDecision(ev.TaskID, ev.Accept)
	case WireTick:
		*ev = engine.Tick(ev.Period)
	default:
		return fmt.Errorf("unknown event type %q", string(typ))
	}
	return validateEvent(ev)
}

// validateEvent is the semantic check every codec applies to a decoded
// event before it reaches the engine, so all wire forms admit exactly the
// same event space and refuse the rest with the same message. Positions,
// distances and radii must be finite — downstream they become array indices
// (cell lookups, the worker grid) and comparisons that NaN silently fails —
// distances non-negative and radii positive.
func validateEvent(ev *engine.Event) error {
	switch ev.Kind {
	case engine.KindTaskArrival:
		t := &ev.Task
		if !finitePoint(t.Origin) || !finitePoint(t.Dest) {
			return fmt.Errorf("task %d has a non-finite position", t.ID)
		}
		if t.Distance < 0 {
			return fmt.Errorf("task %d has negative distance %v", t.ID, t.Distance)
		}
		if !finite(t.Distance) {
			return fmt.Errorf("task %d has non-finite distance %v", t.ID, t.Distance)
		}
	case engine.KindWorkerOnline:
		w := &ev.Worker
		if !finitePoint(w.Loc) {
			return fmt.Errorf("worker %d has a non-finite position", w.ID)
		}
		if w.Radius <= 0 {
			return fmt.Errorf("worker %d has non-positive radius %v", w.ID, w.Radius)
		}
		if !finite(w.Radius) {
			return fmt.Errorf("worker %d has non-finite radius %v", w.ID, w.Radius)
		}
	case engine.KindWorkerMove:
		if !finitePoint(ev.Loc) {
			return fmt.Errorf("worker %d moves to a non-finite position", ev.WorkerID)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func finitePoint(p geo.Point) bool { return finite(p.X) && finite(p.Y) }

// FromEvent converts an engine event into its wire form: the encoder the
// load generator uses, and the exact inverse of Event for every public
// event kind. Internal engine kinds return an error.
func FromEvent(ev engine.Event) (WireEvent, error) {
	switch ev.Kind {
	case engine.KindTaskArrival:
		t := ev.Task
		return WireEvent{Type: WireTaskArrival, Task: &WireTask{
			ID: t.ID, Period: t.Period,
			Origin:   WirePoint{X: t.Origin.X, Y: t.Origin.Y},
			Dest:     wirePoint(t.Dest),
			Distance: t.Distance, Valuation: t.Valuation,
		}}, nil
	case engine.KindWorkerOnline:
		w := ev.Worker
		return WireEvent{Type: WireWorkerOnline, Worker: &WireWorker{
			ID: w.ID, Period: w.Period,
			Loc:    WirePoint{X: w.Loc.X, Y: w.Loc.Y},
			Radius: w.Radius, Duration: w.Duration,
		}}, nil
	case engine.KindWorkerOffline:
		return WireEvent{Type: WireWorkerOffline, WorkerID: ev.WorkerID}, nil
	case engine.KindWorkerMove:
		return WireEvent{Type: WireWorkerMove, WorkerID: ev.WorkerID, To: wirePoint(ev.Loc)}, nil
	case engine.KindAcceptDecision:
		return WireEvent{Type: WireDecisionReply, TaskID: ev.TaskID, Accept: ev.Accept}, nil
	case engine.KindTick:
		return WireEvent{Type: WireTick, Period: ev.Period}, nil
	default:
		return WireEvent{}, fmt.Errorf("event kind %d has no wire form", ev.Kind)
	}
}

// WireDecision is the JSON form of an engine decision: the payload of the
// long-poll quote endpoint and of each SSE frame on the quote stream.
type WireDecision struct {
	TaskID    int     `json:"task_id"`
	Period    int     `json:"period"`
	Cell      int     `json:"cell"`
	Price     float64 `json:"price"`
	Quoted    bool    `json:"quoted"`
	Accepted  bool    `json:"accepted"`
	Served    bool    `json:"served"`
	WorkerID  int     `json:"worker_id"`
	Revenue   float64 `json:"revenue,omitempty"`
	LatencyNS int64   `json:"latency_ns"`
}

func wireDecision(d engine.Decision) WireDecision {
	return WireDecision{
		TaskID: d.TaskID, Period: d.Period, Cell: d.Cell,
		Price: d.Price, Quoted: d.Quoted, Accepted: d.Accepted,
		Served: d.Served, WorkerID: d.WorkerID, Revenue: d.Revenue,
		LatencyNS: int64(d.Latency),
	}
}
