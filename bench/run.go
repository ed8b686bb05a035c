package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"spatialcrowd/bench/loadgen"
	"spatialcrowd/internal/engine"
)

// creditLimit bounds the decisions a closed-loop sender may have caused
// but not yet seen over SSE. The server's per-subscriber queue holds 256 and
// drops what does not fit, so a sender that outran delivery would lose
// decisions; half the queue leaves room for the chunk that is sent when the
// credit is nearly used up and for the superseding re-assignments a quoted
// window can add on top of what it owes.
const creditLimit = 64

// phase is one pass over the stream and everything observed during it.
type phase struct {
	name    string
	rate    float64 // open-loop events/s; 0 for the closed loop
	rep     *loadgen.Report
	samples []loadgen.Sample
	// skew converts a sample time (since the consumer's epoch) into the
	// sender's clock (since its first send): subtract it.
	skew          int64
	consumerEpoch time.Time
	wall          time.Duration // first send to last decision received
	stats         engine.Stats
	queues        []engine.QueueDepths // sampled every queueEvery during the pass
	sseDropped    int64                // frames the server's quote hub dropped on the subscriber
	closeDur      time.Duration        // settle: drain or close after the last ack
	ckpt          string               // in process: the checkpoint taken before closing
	ckptDur       time.Duration        // and how long writing it took, part of closeDur
	// Failure accounting, kept as counts so numerator and denominator print
	// apart.
	attempted, failed int
	owedSeen          int64 // owed decisions the consumer received
	recovered         int   // of those, fetched by task ID after the quote stream dropped them
	missing           int   // decisions owed but never received
	lateReplies       int
	decision, accept  []float64 // latency samples, ms
}

const queueEvery = 5 * time.Millisecond

// runPhase executes one pass on a fresh stack and leaves the stack settled
// (or, with keepRunning, running undrained) for the caller to stop.
func (e *env) runPhase(name string, rate float64, o stackOpts, keepRunning bool) (*phase, *stack, error) {
	o.tag = name
	st, err := e.start(o)
	if err != nil {
		return nil, nil, err
	}
	ph := &phase{name: name, rate: rate}
	plan := loadgen.Plan{Chunks: e.stream.Chunks()}
	if rate > 0 {
		// Chunk c is due when its first event would arrive at the frozen
		// rate. Pacing by events rather than by a fixed period per window
		// keeps the offered load at the stated share of saturation all
		// through the run: the Beijing demand profile is a bell, and at a
		// fixed period its middle would be offered 1.6 times the average.
		plan.Due = e.schedule(rate)
	} else if st.srv != nil {
		plan.Credit, plan.Owed, plan.Consumer = creditLimit, e.owed, st.consumer
	}

	stopQ := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(queueEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopQ:
				return
			case <-tick.C:
				ph.queues = append(ph.queues, st.eng.QueueDepths())
			}
		}
	}()
	rep, err := loadgen.Run(plan, st.target)
	close(stopQ)
	wg.Wait()
	ph.rep = rep
	if err != nil {
		st.stop()
		return ph, nil, fmt.Errorf("%s phase: %w", name, err)
	}
	t0 := time.Now()
	if err := st.settle(keepRunning); err != nil {
		st.stop()
		return ph, nil, fmt.Errorf("%s phase: %w", name, err)
	}
	ph.closeDur, ph.ckpt, ph.ckptDur = time.Since(t0), st.ckpt, st.ckptDur
	ph.stats = st.eng.Stats()
	if st.srv != nil {
		if v, err := st.scrape("spatialcrowd_quote_stream_dropped_total"); err == nil {
			ph.sseDropped = int64(v)
		}
	}
	ph.samples = st.consumer.Samples()
	ph.owedSeen = st.consumer.Received()
	ph.recovered = st.recovered
	ph.consumerEpoch = st.consumer.Epoch()
	ph.skew = int64(rep.Start.Sub(ph.consumerEpoch))
	last := rep.Acked[len(rep.Acked)-1]
	for _, s := range ph.samples {
		// A decision fetched afterwards by task ID ends no pass.
		if at := s.At - ph.skew; at > last && !s.Recovered {
			last = at
		}
	}
	ph.wall = time.Duration(last)
	e.account(ph)
	return ph, st, nil
}

// schedule gives every chunk its due time at the given event rate.
func (e *env) schedule(rate float64) []time.Duration {
	due := make([]time.Duration, len(e.counts))
	before := 0
	for c := range due {
		due[c] = time.Duration(float64(before) / rate * float64(time.Second))
		before += e.counts[c]
	}
	return due
}

// owed is the number of decisions chunk c makes the engine owe: one per
// task of the window its tick closes, plus (quoted) one per scripted reply
// it carries and one per quote of the window before that nobody answered,
// which lapses at this tick.
func (e *env) owed(c int) int {
	s := e.stream
	n := 0
	if c >= 1 {
		n += len(s.Periods[c-1].Tasks)
	}
	if s.Quoted {
		n += e.replies[c]
		if c >= 2 {
			n += len(s.Periods[c-2].Tasks) - e.replies[c-1]
		}
	}
	return n
}

// owedTotal is what the whole stream makes the engine owe: a price per task
// and, quoted, a result or a lapse per task.
func (e *env) owedTotal() int {
	if e.stream.Quoted {
		return 2 * e.stream.NumTasks
	}
	return e.stream.NumTasks
}

// account turns a phase's raw samples into latency samples and failure
// counts. A decision of window q is caused by the tick that closes it,
// which opens chunk q+1; latency runs from that chunk's due time.
func (e *env) account(ph *phase) {
	s := e.stream
	due := ph.rep.Due
	wallMS := float64(ph.wall) / 1e6
	ms := func(sm loadgen.Sample) float64 {
		return float64(sm.At-ph.skew-due[int(sm.Period)+1]) / 1e6
	}
	ph.decision = make([]float64, 0, s.NumTasks)
	if !s.Quoted {
		// Auto-decide: one decision per task, carrying both the price and
		// the assignment, so the requester's answer is resolved by the same
		// tick; accept latency is the decision latency of accepted tasks.
		for _, sm := range ph.samples {
			l := ms(sm)
			ph.decision = append(ph.decision, l)
			if sm.Accepted {
				ph.accept = append(ph.accept, l)
			}
		}
	} else {
		// Quoted: the quotes are the window's decisions; the first
		// non-quote decision for a task that was sent a scripted reply is
		// that reply's result (the reply rides in the same chunk as the
		// tick).
		answered := make([]bool, s.NumTasks)
		for _, sm := range ph.samples {
			switch {
			case sm.Quoted:
				ph.decision = append(ph.decision, ms(sm))
			case e.replied[sm.TaskID] && !answered[sm.TaskID]:
				answered[sm.TaskID] = true
				ph.accept = append(ph.accept, ms(sm))
			}
		}
	}
	ph.missing = e.owedTotal() - int(ph.owedSeen)
	if ph.missing < 0 {
		ph.missing = 0
	}
	// An undelivered decision is the slowest sample there can be.
	for i := 0; i < ph.missing; i++ {
		ph.decision = append(ph.decision, wallMS)
		ph.accept = append(ph.accept, wallMS)
	}
	if l := int(ph.stats.Late - e.ref.Late); l > 0 {
		ph.lateReplies = l
	}
	ph.attempted = s.NumEvents + e.owedTotal() + ph.rep.Posts
	ph.failed = ph.rep.Failed + ph.missing + ph.lateReplies + ph.rep.BadPosts
}

// ledger is what a phase must reproduce exactly: revenue, the served
// funnel, and the worker lifecycle counters.
type ledger struct {
	Events, TasksPriced, Quoted, Accepted, Served int64
	Revenue                                       float64
	Batches, Late, StrategyErrors                 int64
	Lifecycle                                     engine.LifecycleStats
}

func ledgerOf(s engine.Stats) ledger {
	lc := s.Lifecycle
	// The router's table gauges settle one tick after the last retirement
	// note; the stream ends on a tick, so they are not part of the ledger.
	lc.Tracked, lc.TrackedHeld = 0, 0
	return ledger{s.Events, s.TasksPriced, s.Quoted, s.Accepted, s.Served, s.Revenue,
		s.Batches, s.Late, s.StrategyErrors, lc}
}

// reference replays the stream at full speed through an in-process engine
// with the workload's own configuration — same shards, partition, graph mode
// and decide mode, but no sockets, no WAL and no pacing — and returns its
// ledger. A maintained answer counts only if it equals recomputation: every
// timed phase is compared with this.
func (e *env) reference(noAmortize bool) (engine.Stats, error) {
	st, err := e.start(stackOpts{inProcess: true, noConsumer: true, noAmortize: noAmortize})
	if err != nil {
		return engine.Stats{}, err
	}
	if _, err := loadgen.Run(loadgen.Plan{Chunks: e.stream.Chunks()}, st.target); err != nil {
		st.stop()
		return engine.Stats{}, err
	}
	if err := st.eng.Close(); err != nil {
		return engine.Stats{}, err
	}
	return st.eng.Stats(), nil
}

func (e *env) check(what string, got engine.Stats) error {
	if g, w := ledgerOf(got), ledgerOf(e.ref); g != w {
		return fmt.Errorf("%s differs from the reference replay:\n  got  %+v\n  want %+v", what, g, w)
	}
	return nil
}

// recoverOnce opens a second server over the WAL directory an abandoned one
// left behind and returns how long it took to serve with the abandoned
// server's ledger.
func (e *env) recoverOnce(prev *stack) (time.Duration, error) {
	t0 := time.Now()
	st, err := e.start(stackOpts{tag: "recover", noConsumer: true, walDir: prev.walDir})
	if err != nil {
		return 0, err
	}
	defer st.stop()
	resp, err := st.client.Get(st.base + "/healthz")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("recovered server answers /healthz with %d", resp.StatusCode)
	}
	// WAL replay only enqueues the events; the shards finish them after New
	// has returned.
	want := ledgerOf(e.ref)
	for deadline := t0.Add(60 * time.Second); ; {
		if ledgerOf(st.eng.Stats()) == want {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("recovered ledger never matched:\n  got  %+v\n  want %+v", ledgerOf(st.eng.Stats()), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// result is one run of one workload.
type result struct {
	w        *workload
	seed     int64
	windows  int
	stream   streamInfo
	setups   []float64 // seconds, one per set-up
	phases   []*phase
	recovers []float64 // seconds
	metrics  map[string]float64
	took     time.Duration // the whole run, for the driver's time budget
	notes    []string      // validity remarks printed with the numbers
	invalid  []string      // reasons the run does not count
}

type streamInfo struct {
	events, tasks, replies, windows int
}

// A set-up takes half a second and a WAL replay more than one: the repeat
// counts give each median a middle value without the run outgrowing the
// driver's time.
const (
	phaseAttempts     = 2 // a paced phase the generator ran late in is repeated once
	setupRepeats      = 3
	walRecoverRepeats = 3
	replayMinTime     = time.Second
	replayMaxRepeats  = 5
)

// passes is the order of one run's measured passes over the stream. The
// saturation pass is made three times and events_per_s is the median of the
// three rates: one closed-loop pass lasts 2-4 s, and a neighbour of the
// virtual machine that takes the processor or the disk for a few of them
// moves a single pass by 10-30 %. The paced passes lie between them so that
// the three are spread over the run and a disturbance shorter than a paced
// pass reaches at most one.
var passes = []struct {
	name  string
	share float64 // of the frozen satRate; 0 is the closed loop
}{{"saturation", 0}, {"r50", 0.5}, {"saturation", 0}, {"r80", 0.8}, {"saturation", 0}}

// runWorkload performs one full untraced run: the set-ups, the reference
// replay, and the passes, with the recoveries after the pass that crashes.
func runWorkload(w *workload, seed int64, seconds float64, scratch string) (*result, error) {
	res := &result{w: w, seed: seed, windows: w.windowsFor(seconds), metrics: map[string]float64{}}
	defer func(t0 time.Time) { res.took = time.Since(t0) }(time.Now())
	dir, err := mkScratch(scratch, w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var e *env
	for i := 0; i < setupRepeats; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		if e, err = setup(w, res.windows, seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	s := e.stream
	res.stream = streamInfo{s.NumEvents, s.NumTasks, s.NumReplies, s.Windows()}
	e.index()

	// Nothing of a stack without a WAL survives a crash; its replacement gets
	// to the same state by recomputing it from the input, which is what the
	// reference replay does, so there its duration is the recovery time. A
	// replay of a quarter of a second is too short to be steady and is
	// repeated until a second has been spent on replays.
	for spent := time.Duration(0); ; {
		runtime.GC()
		t0 := time.Now()
		if e.ref, err = e.reference(false); err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		if w.wal {
			break
		}
		d := time.Since(t0)
		res.recovers = append(res.recovers, d.Seconds())
		if spent += d; spent >= replayMinTime || len(res.recovers) == replayMaxRepeats {
			break
		}
	}
	if w.amortize {
		// The amortized path must price exactly like the plain one.
		plain, err := e.reference(true)
		if err != nil {
			return nil, fmt.Errorf("reference replay (amortize off): %w", err)
		}
		if err := e.check("reference replay with Amortize off", plain); err != nil {
			return nil, err
		}
	}

	for _, p := range passes {
		// The r80 server of a WAL workload is left undrained: it is the one
		// that "crashes".
		crash := w.wal && p.name == "r80"
		var st *stack
		for attempt := 1; ; attempt++ {
			runtime.GC()
			var ph *phase
			if ph, st, err = e.runPhase(p.name, p.share*w.satRate, stackOpts{}, crash); err != nil {
				return res, err
			}
			if err := e.check(p.name+" phase", ph.stats); err != nil {
				st.stop()
				return res, err
			}
			// A phase the generator could not drive says nothing about the
			// program: it is repeated once, and the repeat is what counts,
			// valid or not.
			if ls := ph.lateShare(); ls > lateLimit && attempt < phaseAttempts {
				res.notes = append(res.notes, fmt.Sprintf("%s, attempt %d: the generator's own delays added up to %.1f%% of the schedule (limit %.0f%%); phase repeated",
					p.name, attempt, ls*100, lateLimit*100))
				if err := st.stop(); err != nil {
					return res, err
				}
				continue
			}
			res.phases = append(res.phases, ph)
			break
		}
		if !crash {
			if err := st.stop(); err != nil {
				return res, err
			}
			continue
		}
		st.abandon()
		for i := 0; i < walRecoverRepeats; i++ {
			d, err := e.recoverOnce(st)
			if err != nil {
				return res, fmt.Errorf("recovery: %w", err)
			}
			res.recovers = append(res.recovers, d.Seconds())
		}
		if err := st.reap(); err != nil {
			return res, err
		}
	}
	res.finish()
	return res, nil
}
