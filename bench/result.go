package main

import (
	"encoding/json"
	"fmt"
	"io"

	"spatialcrowd/internal/engine"
)

// index builds the per-chunk and per-task lookups the accounting needs from
// the stream's reply script.
func (e *env) index() {
	s := e.stream
	e.replies = make([]int, s.Chunks())
	e.replied = make([]bool, s.NumTasks)
	if !s.Quoted {
		return
	}
	var evs []engine.Event
	for c := range e.replies {
		evs = s.Events(c, evs[:0])
		for _, ev := range evs {
			if ev.Kind == engine.KindAcceptDecision {
				e.replies[c]++
				e.replied[ev.TaskID] = true
			}
		}
	}
}

// lateLimit is how much of a paced phase's scheduled length the generator's
// own delays may add up to before the phase is invalid (not slow: the
// numbers of a phase the generator could not drive mean nothing).
const lateLimit = 0.05

// lateShare is the generator's own delay, summed over chunks, as a share of
// the phase's scheduled length.
func (p *phase) lateShare() float64 {
	n := len(p.rep.Due)
	if p.rate == 0 || n < 2 || p.rep.Due[n-1] == 0 {
		return 0
	}
	var sum int64
	for _, l := range p.rep.Late() {
		sum += l
	}
	return float64(sum) / float64(p.rep.Due[n-1])
}

// backlogP99ms is how far behind schedule chunks were sent, the target's
// slowness included; lateP99ms is the generator's own part of that.
func (p *phase) backlogP99ms() float64 { return p99ms(p.rep.Backlog()) }
func (p *phase) lateP99ms() float64    { return p99ms(p.rep.Late()) }

// queuesGrowing reports whether the engine's bounded queues were deeper, on
// average, over the last quarter of the pass than over its middle half by
// more than a quarter of their capacity: at a sustainable rate they hover,
// at an unsustainable one they climb until back-pressure holds them full.
func (p *phase) queuesGrowing() bool {
	n := len(p.queues)
	if n < 8 || p.queues[0].Capacity == 0 {
		return false
	}
	mean := func(qs []engine.QueueDepths) float64 {
		sum := 0
		for _, q := range qs {
			sum += q.Router + q.MaxShard
		}
		return float64(sum) / float64(len(qs))
	}
	return mean(p.queues[3*n/4:])-mean(p.queues[n/4:3*n/4]) > float64(p.queues[0].Capacity)/4
}

// eventsPerS is the whole-pass rate: events acknowledged over the wall time
// from the first send to the last decision received.
func (p *phase) eventsPerS() float64 { return float64(p.rep.Accepted) / p.wall.Seconds() }

func (r *result) phase(name string) *phase {
	for _, p := range r.phases {
		if p.name == name {
			return p
		}
	}
	return nil
}

// finish derives the nine end-to-end metrics and the validity verdicts from
// the phases. Percentiles are read off each phase's raw samples.
func (r *result) finish() {
	m := r.metrics
	m["setup_s"] = median(r.setups)
	r50, r80 := r.phase("r50"), r.phase("r80")
	var rates []float64
	for _, p := range r.phases {
		if p.rate == 0 {
			rates = append(rates, p.eventsPerS())
		}
	}
	m["events_per_s"] = median(rates)
	units := r.stream.windows
	d50 := summarize(r50.decision, units, 0.99)
	a50 := summarize(r50.accept, units, 0.99)
	m["decision_p50_ms"], m["decision_p99_ms"] = d50.p50, d50.tail
	m["decision_p99_ms.r80"] = summarize(r80.decision, units, 0.99).tail
	m["accept_p50_ms"], m["accept_p99_ms"] = a50.p50, a50.tail
	m["recover_s"] = median(r.recovers)
	attempted, failed := r.totals()
	m["failed_share"] = float64(failed) / float64(attempted)

	if d50.tailQ < 0.99 {
		r.notes = append(r.notes, fmt.Sprintf("%d windows leave fewer than ten beyond p99: the metrics named p99 are p%g here (the full run closes %d)",
			units, d50.tailQ*100, r.w.windows))
	}
	for _, p := range r.phases {
		if p.rate == 0 && p.queuesGrowing() {
			r.invalid = append(r.invalid, "saturation: engine queues still growing at the end of the pass")
		}
		if ls := p.lateShare(); ls > lateLimit {
			r.invalid = append(r.invalid, fmt.Sprintf("%s: the generator's own delays add up to %.1f%% of the schedule (limit %.0f%%)",
				p.name, ls*100, lateLimit*100))
		}
	}
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return
}

// print writes the human-readable report of one run.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d windows, %d events (%d tasks, %d scripted replies)\n",
		r.w.name, r.seed, r.stream.windows, r.stream.events, r.stream.tasks, r.stream.replies)
	fmt.Fprintf(w, "   why: %s\n", r.w.why)
	fmt.Fprintf(w, "   set-up x%d, median %.3fs   recovery x%d, median %.4fs   whole run %.1fs\n",
		len(r.setups), median(r.setups), len(r.recovers), median(r.recovers), r.took.Seconds())
	for _, p := range r.phases {
		loop := "closed loop, 1 client"
		if p.rate > 0 {
			loop = fmt.Sprintf("open loop at %.0f events/s", p.rate)
		}
		fmt.Fprintf(w, "   %-10s %s: %d events in %.3fs = %.0f/s; %d posts, %d busy; settle %.1fms\n",
			p.name, loop, p.rep.Accepted, p.wall.Seconds(), p.eventsPerS(),
			p.rep.Posts, p.rep.Busy, float64(p.closeDur)/1e6)
		d := summarize(p.decision, r.stream.windows, 0.99)
		fmt.Fprintf(w, "              decision ms p50 %.3f, p%g %.3f, max %.3f (n=%d over %d windows)\n",
			d.p50, d.tailQ*100, d.tail, d.max, d.n, d.units)
		if r.stream.replies > 0 {
			a := summarize(p.accept, r.stream.windows, 0.99)
			fmt.Fprintf(w, "              accept   ms p50 %.3f, p%g %.3f, max %.3f (n=%d)\n", a.p50, a.tailQ*100, a.tail, a.max, a.n)
		}
		if p.rate > 0 {
			fmt.Fprintf(w, "              generator late p99 %.3fms, %.2f%% of the schedule in all; sent behind schedule p99 %.3fms\n",
				p.lateP99ms(), p.lateShare()*100, p.backlogP99ms())
		}
		fmt.Fprintf(w, "              failed %d of %d attempted (unaccepted %d, undelivered %d, late replies %d, bad posts %d); quote stream dropped %d, %d owed recovered by task; ledger = reference\n",
			p.failed, p.attempted, p.rep.Failed, p.missing, p.lateReplies, p.rep.BadPosts, p.sseDropped, p.recovered)
	}
	attempted, failed := r.totals()
	fmt.Fprintf(w, "   failed_share: %d failed / %d attempted\n", failed, attempted)
	printMetrics(w, endToEnd, r.metrics, nil)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, n := range r.invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", n)
	}
}

// printMetrics prints every metric of defs by name and unit. absent names
// the metrics whose layer the workload bypasses: they print as a dash, not
// as a number. An end-to-end metric the driver does not gate says so.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64, absent map[string]bool) {
	for _, d := range defs {
		switch {
		case absent[d.name]:
			fmt.Fprintf(w, "   %-32s %14s %s\n", d.name, "-", d.unit)
		case d.ungated != "":
			fmt.Fprintf(w, "   %-32s %14.6g %-6s (not gated, see -list)\n", d.name, vals[d.name], d.unit)
		default:
			fmt.Fprintf(w, "   %-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
}

// lastLine is the machine-readable result the driver reads off the last
// line of standard output.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeLastLine is only reached by a run whose every pass equalled the
// reference replay; one that did not has exited without a result.
func writeLastLine(w io.Writer, attempted, failed int, defs []metricDef, vals map[string]float64) error {
	ll := lastLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		ll.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(ll)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
