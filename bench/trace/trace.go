// Package trace records spans around the calls the benchmark makes into, or
// receives from, the system under test: a name, a start, an end, the lane
// (goroutine role) it ran on, the chunk it belongs to, and the span that
// caused it. Spans stay in memory and are written out when the run ends, in
// Chrome trace-event format. A span's self time is its duration minus the
// part of that interval its children cover.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Times are nanoseconds since the recorder's
// epoch.
type Span struct {
	Name string
	// Lane names the goroutine role the span ran on ("client", "shard0").
	Lane string
	// ID is shared by every span of one chunk of the stream.
	ID int
	// Parent names the span of the same ID that caused this one; empty for a
	// root. Linking by name lets a child be recorded before its parent's end
	// is known.
	Parent     string
	Start, End int64
}

// Dur is the span's length.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recording; its epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now is the current time on the recorder's clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// At converts a wall-clock instant to the recorder's clock.
func (r *Recorder) At(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Add files one finished span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns what was recorded. Call it once recording has stopped.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// SelfTimes returns, for each span, its duration minus the part of its
// interval covered by its children: the spans of the same ID that name it as
// Parent (on any lane — a window closed by two shards has two overlapping
// children, and the union counts once). Children are clipped to the parent's
// interval, so a child that outlives its parent cannot drive self time
// negative.
func SelfTimes(spans []Span) []int64 {
	type key struct {
		id   int
		name string
	}
	kids := map[key][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			kids[k] = append(kids[k], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, p := range spans {
		iv = iv[:0]
		for _, c := range kids[key{p.ID, p.Name}] {
			s, e := spans[c].Start, spans[c].End
			if s < p.Start {
				s = p.Start
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				iv = append(iv, [2]int64{s, e})
			}
		}
		self[i] = p.Dur() - covered(iv)
	}
	return self
}

// covered is the length of the union of the intervals (which it sorts).
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// Total aggregates the spans of one name.
type Total struct {
	Count int
	Dur   int64 // summed durations
	Self  int64 // summed self times
}

// Totals sums durations and self times by span name.
func Totals(spans []Span) map[string]Total {
	self := SelfTimes(spans)
	out := map[string]Total{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Dur += s.Dur()
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}

// LaneCover reports, per lane, the length of the union of the lane's root
// spans: how long the lane had something attributable open.
func LaneCover(spans []Span) map[string]int64 {
	by := map[string][][2]int64{}
	for _, s := range spans {
		if s.Parent == "" {
			by[s.Lane] = append(by[s.Lane], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for lane, iv := range by {
		out[lane] = covered(iv)
	}
	return out
}

// WriteChrome writes the spans as a Chrome trace-event file (load it in
// chrome://tracing or ui.perfetto.dev): one complete ("X") event per span,
// one thread per lane, with the chunk ID and parent in args.
func WriteChrome(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	var evs []event
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Lane}})
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Pid: 1, Tid: tid, Args: map[string]any{"id": s.ID, "parent": s.Parent}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
