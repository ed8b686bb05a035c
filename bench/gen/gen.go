// Package gen makes the benchmark's inputs. Every workload is one Stream: a
// seeded market instance from internal/workload, re-sliced where the stock
// generator's horizon gives too few windows, with a lifecycle script
// (moves, offlines, scripted quote replies) laid over it. The program under
// test only ever sees the events; the seed stays here.
package gen

import (
	"fmt"
	"math/rand"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/workload"
)

// Kind names the four canonical inputs.
type Kind int

const (
	// DenseGrid is the synthetic 10x10 grid with thick windows: about 600
	// tasks and 100 one-period workers per window.
	DenseGrid Kind = iota
	// IngestWAL is the fleet-onboarding feed: thin windows in which worker
	// lifecycle events (online, move, offline) outnumber tasks ten to one.
	IngestWAL
	// RoadQuoted is Beijing-rush demand snapped to a street lattice, with a
	// scripted reply to most quotes.
	RoadQuoted
	// CitySteady is Beijing-rush hotspots on the grid with a long-lived
	// fleet of which 2 % relocates per window.
	CitySteady
)

// Reply is one scripted requester answer to a quote.
type Reply struct {
	TaskID int
	Accept bool
}

// Period is everything that happens between two ticks, in the canonical
// order Events emits it.
type Period struct {
	Replies  []Reply // answers to the quotes of the window the tick just closed
	Moves    []market.Move
	Offlines []int
	Workers  []market.Worker
	Tasks    []market.Task
}

// Stream is one workload's generated input.
type Stream struct {
	Kind Kind
	// Space is the backend the engine under test is configured with.
	Space spatial.Space
	// Road is Space as a *spatial.RoadSpace, nil on grid workloads.
	Road *spatial.RoadSpace
	// Model is the hidden valuation model, used only to calibrate BaseP.
	Model market.ValuationModel
	// Periods holds one entry per window.
	Periods []Period
	// Quoted streams carry Replies and end with a second flushing tick.
	Quoted bool

	NumTasks   int // task IDs are 0..NumTasks-1
	NumReplies int
	NumEvents  int // events Events emits over the whole stream

	// closing holds the replies to the last window's quotes; they ride in
	// the closing chunk, which has no Period of its own.
	closing []Reply
}

// Windows reports how many pricing windows the stream closes.
func (s *Stream) Windows() int { return len(s.Periods) }

// Chunks reports how many requests the stream is sent as: one per window
// plus the closing one.
func (s *Stream) Chunks() int { return len(s.Periods) + 1 }

// Events appends chunk c's events to dst in canonical order: the tick, the
// replies to the window it closed, then moves, offlines, onlines and tasks.
// Chunk Windows() is the closing chunk: the tick that closes the last
// window, its replies, and (quoted) the tick that finalizes them.
func (s *Stream) Events(c int, dst []engine.Event) []engine.Event {
	dst = append(dst, engine.Tick(c))
	if c == len(s.Periods) {
		if s.Quoted {
			for _, r := range s.closing {
				dst = append(dst, engine.AcceptDecision(r.TaskID, r.Accept))
			}
			dst = append(dst, engine.Tick(c+1))
		}
		return dst
	}
	p := &s.Periods[c]
	for _, r := range p.Replies {
		dst = append(dst, engine.AcceptDecision(r.TaskID, r.Accept))
	}
	for _, m := range p.Moves {
		dst = append(dst, engine.WorkerMove(m.WorkerID, m.To))
	}
	for _, id := range p.Offlines {
		dst = append(dst, engine.WorkerOffline(id))
	}
	for _, w := range p.Workers {
		dst = append(dst, engine.WorkerOnline(w))
	}
	for _, t := range p.Tasks {
		dst = append(dst, engine.TaskArrival(t))
	}
	return dst
}

// Make generates the stream of the given kind with the given number of
// windows. Equal arguments give equal streams.
func Make(kind Kind, windows int, seed int64) (*Stream, error) {
	if windows < 2 {
		return nil, fmt.Errorf("gen: need at least 2 windows, got %d", windows)
	}
	var (
		in    *market.Instance
		model market.ValuationModel
		road  *spatial.RoadSpace
		err   error
	)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch kind {
	case DenseGrid:
		in, model, err = workload.Synthetic(workload.SyntheticConfig{
			Workers: 100 * windows, Requests: 600 * windows, Periods: windows,
			// A wide temporal spread keeps every window between roughly 550
			// and 650 tasks instead of the stock bell over the horizon: a
			// paced phase offers period t at t x D whatever its size, so a
			// bell would overload the middle of the run at 80 % of the mean.
			TemporalSigma: 1, Seed: seed,
		})
	case IngestWAL:
		in, model, err = workload.Synthetic(workload.SyntheticConfig{
			Workers: 36 * windows, Requests: 30 * windows, Periods: windows,
			TemporalSigma: 3, WorkerDuration: 24, Seed: seed,
		})
	case RoadQuoted:
		in, model, road, err = workload.BeijingRoad(workload.RoadConfig{
			Variant: workload.BeijingRush, WorkerDuration: 15, Seed: seed,
			// The full Table-4 populations: a window of 56 tasks owes 112
			// decisions, which on top of the closed loop's credit of 64 still
			// fits the SSE subscriber's 256-slot queue.
			Scale: thin(1, RoadWindows, windows),
		})
		if err == nil {
			err = reslice(in, windows, rng)
		}
	case CitySteady:
		in, model, err = citySteady(windows, seed, rng)
	default:
		return nil, fmt.Errorf("gen: unknown kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	s := &Stream{Kind: kind, Space: in.Spatial(), Road: road, Model: model,
		Periods: make([]Period, in.Periods), NumTasks: len(in.Tasks)}
	byPeriod(in, s.Periods)
	switch kind {
	case IngestWAL:
		drift(s, rng, 0.45, 0.75)
	case CitySteady:
		drift(s, rng, 0.02, 0)
	case RoadQuoted:
		s.Quoted = true
		script(s, rng)
	}
	var evs []engine.Event
	for c := 0; c < s.Chunks(); c++ {
		evs = s.Events(c, evs[:0])
		s.NumEvents += len(evs)
	}
	return s, nil
}

// RoadWindows and CityWindows are the stream lengths at which the Beijing
// workloads carry their stated populations. A shorter stream divides the
// populations further, so a window stays as thick as in the full run.
const (
	RoadWindows = 2040
	CityWindows = 2040
)

// thin returns the population divisor for a stream of the given length.
func thin(scale, fullWindows, windows int) int {
	if s := (scale*fullWindows + windows/2) / windows; s > scale {
		return s
	}
	return scale
}

// citySteadyCopies overlays this many independently seeded Beijing-like
// fleets so a re-sliced window is of medium thickness.
const citySteadyCopies = 2

// citySteady builds the production-shaped mix: the full Table-4 fleet with
// a long availability, and a quarter of the demand, so most workers stay
// pooled for many windows instead of being consumed on arrival.
func citySteady(windows int, seed int64, rng *rand.Rand) (*market.Instance, market.ValuationModel, error) {
	var out *market.Instance
	var model market.ValuationModel
	for c := 0; c < citySteadyCopies; c++ {
		in, m, err := workload.BeijingLike(workload.BeijingConfig{
			Variant: workload.BeijingRush, WorkerDuration: 15, Seed: seed + int64(c)*7919,
			Scale: thin(1, CityWindows, windows),
		})
		if err != nil {
			return nil, nil, err
		}
		if out == nil {
			out, model = &market.Instance{Grid: in.Grid, Periods: in.Periods}, m
		}
		for _, t := range in.Tasks {
			if t.ID%4 == 0 {
				t.ID = len(out.Tasks)
				out.Tasks = append(out.Tasks, t)
			}
		}
		for _, w := range in.Workers {
			w.ID = len(out.Workers)
			out.Workers = append(out.Workers, w)
		}
	}
	return out, model, reslice(out, windows, rng)
}

// reslice spreads the instance over the given number of windows: every
// arrival gets a window drawn uniformly over the new horizon, and worker
// availability is stretched by k = windows/Periods so wall-clock durations
// are kept. The stock generator's 120 periods give too few windows, and its
// rush-hour bell would make the stream non-stationary: a paced phase would
// offer the middle of the run 1.6 times the average, and its latencies would
// be those of the peak. Populations, hotspots, trip lengths and
// valuations are the Beijing ones; the hour's profile is not kept. Worker
// starts reach back before the horizon, so the fleet is at its steady size
// from the first window on.
func reslice(in *market.Instance, windows int, rng *rand.Rand) error {
	if windows%in.Periods != 0 {
		return fmt.Errorf("gen: %d windows is not a multiple of the generator's %d periods", windows, in.Periods)
	}
	k := windows / in.Periods
	for i := range in.Tasks {
		in.Tasks[i].Period = rng.Intn(windows)
	}
	for i := range in.Workers {
		w := &in.Workers[i]
		w.Duration *= k
		// A start drawn from before the horizon too, then cut at window 0,
		// fills the pool to its steady size with the first chunk instead of
		// over the first Duration windows.
		if w.Period = rng.Intn(windows+w.Duration) - w.Duration; w.Period < 0 {
			w.Duration += w.Period
			w.Period = 0
		}
		if w.Duration < 1 {
			w.Duration = 1
		}
	}
	in.Periods = windows
	return nil
}

// byPeriod buckets the instance's workers and tasks by start period,
// keeping the generator's order inside a period.
func byPeriod(in *market.Instance, ps []Period) {
	for _, w := range in.Workers {
		ps[w.Period].Workers = append(ps[w.Period].Workers, w)
	}
	for _, t := range in.Tasks {
		ps[t.Period].Tasks = append(ps[t.Period].Tasks, t)
	}
}

// drift lays a lifecycle script over the stream. Every window, each worker
// the script believes online relocates with probability moveProb to a
// jittered point near the centre of its cell or a neighbouring one: the rule
// of workload.MobilityTrace, applied over an active set. MobilityTrace itself
// scans periods x workers; measured on the reference box that is 0.8 s for
// city-steady (56 k workers x 2040 windows) and 0.9 s for ingest-wal (72 k x
// 2000) on top of set-ups of 0.46 s and 0.39 s, so setup_s would mostly time
// the trace generator, and it has no log-offs. With offlineProb > 0 a worker
// also logs off at a uniform point of its availability. Like MobilityTrace
// the script is assignment-blind: it keeps moving workers the engine has
// already consumed, which the engine counts as late events.
func drift(s *Stream, rng *rand.Rand, moveProb, offlineProb float64) {
	type live struct {
		id   int
		loc  geo.Point
		last int // final window the script keeps the worker online
		off  bool
	}
	var active []live
	var buf []int
	for t := range s.Periods {
		p := &s.Periods[t]
		kept := active[:0]
		for _, w := range active {
			if t > w.last {
				if w.off {
					p.Offlines = append(p.Offlines, w.id)
				}
				continue
			}
			if rng.Float64() < moveProb {
				cur := s.Space.CellOf(w.loc)
				buf = append(buf[:0], cur)
				buf = s.Space.NeighborsAppend(cur, buf)
				to := s.Space.CellCenter(buf[rng.Intn(len(buf))])
				to.X += rng.Float64()*2 - 1
				to.Y += rng.Float64()*2 - 1
				w.loc = to
				p.Moves = append(p.Moves, market.Move{Period: t, WorkerID: w.id, To: to})
			}
			kept = append(kept, w)
		}
		active = kept
		for _, w := range p.Workers {
			l := live{id: w.ID, loc: w.Loc, last: t + w.Duration - 1}
			if w.Duration > 2 && rng.Float64() < offlineProb {
				l.last = t + 1 + rng.Intn(w.Duration-2)
				l.off = true
			}
			active = append(active, l)
		}
	}
}

// script writes the requesters' side of a quoted stream, as the engine's
// crash tests do: four quotes in five get an answer, three answers in five
// are acceptances. The replies to window t's quotes follow the tick that
// closes it, so they ride in chunk t+1.
func script(s *Stream, rng *rand.Rand) {
	for t := range s.Periods {
		var rs []Reply
		for _, task := range s.Periods[t].Tasks {
			if rng.Float64() < 0.8 {
				rs = append(rs, Reply{TaskID: task.ID, Accept: rng.Float64() < 0.6})
			}
		}
		s.NumReplies += len(rs)
		if t+1 < len(s.Periods) {
			s.Periods[t+1].Replies = rs
		} else {
			s.closing = rs
		}
	}
}
