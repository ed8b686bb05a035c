package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spatialcrowd/bench/loadgen"
	"spatialcrowd/bench/trace"
	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/match"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/wire"
)

// tracer holds the spans and counters of one traced pass. Everything it
// records per decision lives in per-lane arrays written by the one goroutine
// that owns the lane, so the hot path takes no lock.
type tracer struct {
	e      *env
	rec    *trace.Recorder
	strats []*tracedStrategy
	space  *countingSpace // road workload only

	// Per lane and window: when the first and the last priced decision
	// passed the OnDecision hook.
	first, last [][]int64
	hookAt      []int64 // per task: when its priced decision passed the hook
	part        spatial.Partitioner
}

func newTracer(e *env) *tracer {
	t := &tracer{e: e, rec: trace.NewRecorder()}
	lanes := e.w.shards
	if lanes == 0 {
		lanes = 1
	}
	t.strats = make([]*tracedStrategy, lanes)
	t.first, t.last = make([][]int64, lanes), make([][]int64, lanes)
	for i := range t.first {
		t.first[i] = make([]int64, e.stream.Windows()+2)
		t.last[i] = make([]int64, e.stream.Windows()+2)
	}
	t.hookAt = make([]int64, e.stream.NumTasks)
	t.part = e.engineConfig(stackOpts{}).Partitioner
	if t.part == nil && e.w.shards > 0 {
		t.part = spatial.ModPartition(e.w.shards)
	}
	if e.stream.Road != nil {
		t.space = &countingSpace{Space: e.stream.Space}
	}
	return t
}

func (t *tracer) laneName(i int) string {
	if t.e.w.shards == 0 {
		return "engine"
	}
	return fmt.Sprintf("shard%d", i)
}

// opts wires the wrappers into a stack.
func (t *tracer) opts() stackOpts {
	o := stackOpts{onDecision: t.onDecision}
	every := t.e.stream.Windows() / 100
	if every < 2 {
		every = 2
	}
	o.wrap = func(shard int, s core.Strategy) core.Strategy {
		ts, err := newTracedStrategy(s, t.rec, t.laneName(shard), every, t.e.w.amortize && !t.e.w.cellIndex)
		if err != nil {
			panic(err) // MAPS has both extensions
		}
		t.strats[shard] = ts
		return ts
	}
	if t.space != nil {
		o.space = t.space
	}
	return o
}

// onDecision runs on the shard goroutine that emitted d (after the server's
// quote hub, when there is one).
func (t *tracer) onDecision(d engine.Decision) {
	if t.e.stream.Quoted && !d.Quoted {
		return // a reply's result: not part of the window close
	}
	lane := 0
	if t.part != nil {
		lane = t.part.ShardOf(d.Cell)
	}
	now := t.rec.Now()
	if t.first[lane][d.Period] == 0 {
		t.first[lane][d.Period] = now
	}
	t.last[lane][d.Period] = now
	t.hookAt[d.TaskID] = now
}

// addSpans turns the pass's raw observations into spans: what the sender
// saw (one span per request), what each shard lane did per window, and when
// the window's decisions reached the SSE client.
func (t *tracer) addSpans(ph *phase) {
	rep := ph.rep
	off := t.rec.At(rep.Start)
	root := "server.post"
	if t.e.w.shards == 0 || !t.e.w.http {
		root = "engine.submit"
	}
	for c := range rep.Sent {
		t.rec.Add(trace.Span{Name: root, Lane: "client", ID: c, Start: off + rep.Sent[c], End: off + rep.Acked[c]})
		if rep.Held[c] > 0 {
			// The closed loop over a socket holds a chunk back until the
			// decisions owed so far have arrived: delivery is on its path.
			t.rec.Add(trace.Span{Name: "loadgen.credit_wait", Lane: "client", ID: c, Start: off + rep.Sent[c] - rep.Held[c], End: off + rep.Sent[c]})
		}
	}
	det := t.e.w.shards == 0
	for lane, ts := range t.strats {
		if ts == nil {
			continue
		}
		for q, start := range ts.priceStart {
			end := t.last[lane][q]
			parent := ""
			if det {
				// In the deterministic engine the submit of the chunk that
				// carries the tick is the close, from its first instruction.
				start, parent = off+rep.Sent[q+1], "engine.submit"
			}
			if end < start {
				continue // priced but nothing delivered: an empty batch
			}
			t.rec.Add(trace.Span{Name: "window.close", Lane: ts.lane, ID: q + 1, Parent: parent, Start: start, End: end})
			t.rec.Add(trace.Span{Name: "engine.deliver", Lane: ts.lane, ID: q + 1, Parent: "window.close",
				Start: t.first[lane][q], End: end})
		}
	}
	if t.e.w.http {
		soff := t.rec.At(ph.consumerEpoch)
		lastRecv := make([]int64, t.e.stream.Windows()+2)
		for _, s := range ph.samples {
			priced := s.Quoted || !t.e.stream.Quoted
			if priced && !s.Recovered && soff+s.At > lastRecv[s.Period] {
				lastRecv[s.Period] = soff + s.At
			}
		}
		for q, end := range lastRecv {
			start := int64(0)
			for lane := range t.first {
				if f := t.first[lane][q]; f > 0 && (start == 0 || f < start) {
					start = f
				}
			}
			if start > 0 && end > start {
				t.rec.Add(trace.Span{Name: "server.sse", Lane: "sse", ID: q + 1, Start: start, End: end})
			}
		}
	}
}

// stages re-runs the platform-side stages of the window close on the
// windows the strategy wrappers copied out, each stage alone and timed: the
// graph builder of the workload's mode, the pricing context, and the
// matching (batch for auto-decide, one augmentation per accepting reply for
// quoted). They split the close's self time without instrumenting it.
type stageTimes struct {
	windows, tasks, workers, edges int
	graphNS, ctxNS, assignNS       int64
	augmentNS                      int64
	accepts                        int
}

func (t *tracer) stages() stageTimes {
	var st stageTimes
	sp := t.e.stream.Space
	var (
		cellSc market.CellIndexScratch
		ix     market.WorkerIndex
		kdG    = match.NewGraph(0, 0)
		ctxSc  core.ContextScratch
		mw     match.MaxWeightScratch
		inc    *match.Incremental
	)
	// prime puts the k-d index in the state the engine's was in before the
	// sampled window: with amortization on, holding the previous window's
	// workers, so that the timed step is the incremental update the engine
	// ran, not a rebuild.
	prime := func(ws windowSample) {
		if ws.prevWorkers != nil {
			ix.Reindex(ws.prevWorkers)
		}
	}
	build := func(ws windowSample) *match.Graph {
		switch {
		case t.e.w.cellIndex:
			return market.BuildBipartiteCellIndexScratch(sp, ws.tasks, ws.workers, &cellSc)
		case ws.prevWorkers != nil:
			ix.Update(ws.workers)
		default:
			ix.Reindex(ws.workers)
		}
		return ix.BuildGraphInto(ws.tasks, kdG)
	}
	for _, ts := range t.strats {
		if ts == nil {
			continue
		}
		for _, ws := range ts.samples {
			prime(ws)
			build(ws) // warm the arenas for this size
			prime(ws)
			t0 := time.Now()
			g := build(ws)
			t1 := time.Now()
			core.BuildContextScratch(sp, ws.period, ws.tasks, ws.workers, g, &ctxSc)
			t2 := time.Now()
			st.graphNS += int64(t1.Sub(t0))
			st.ctxNS += int64(t2.Sub(t1))
			if t.e.stream.Quoted {
				if inc == nil {
					inc = match.NewIncremental(g)
				}
				inc.Reset(g)
				t3 := time.Now()
				for i, acc := range ws.accepted {
					if acc {
						inc.TryAugment(i)
						st.accepts++
					}
				}
				st.augmentNS += int64(time.Since(t3))
			} else {
				weights := make([]float64, len(ws.tasks))
				for i, acc := range ws.accepted {
					if acc {
						weights[i] = ws.tasks[i].Distance * ws.prices[i]
					}
				}
				t3 := time.Now()
				match.MaxWeightByLeftScratch(g, weights, &mw)
				st.assignNS += int64(time.Since(t3))
			}
			st.windows++
			st.tasks += len(ws.tasks)
			st.workers += len(ws.workers)
			st.edges += ws.edges
		}
	}
	return st
}

// submitPass is the in-process half of an http workload's traced run: the
// same stream through TrySubmitBatch on an identically configured engine,
// with the WAL writing through a timing store and the barrier the server
// places before every acknowledgement (SyncWAL) placed after every chunk.
// It yields what cannot be seen through a socket: time inside the submit
// call, inside segment writes and fsyncs, allocation per event, and the
// checkpoint.
type submitPass struct {
	submitNS, blockedNS int64
	busy                int
	store               *timingStore
	walDir              string
	allocBytes, allocs  uint64
	closeDur            time.Duration
	ckptDur, restoreDur time.Duration
	ckptBytes           int
	stats               engine.Stats
}

func (t *tracer) submitPass() (*submitPass, error) {
	e, rec := t.e, t.rec
	sp := &submitPass{}
	o := stackOpts{inProcess: true, noConsumer: true}
	var wlog *wal.Log
	if e.w.wal {
		sp.walDir = filepath.Join(e.dir, "submit-wal")
		if err := os.RemoveAll(sp.walDir); err != nil {
			return nil, err
		}
		fs, err := wal.NewFileStore(sp.walDir)
		if err != nil {
			return nil, err
		}
		sp.store = &timingStore{Store: fs, rec: rec}
		o.engineWAL = func(cfg *engine.Config) error {
			// The options server.newTenant gives a WALSyncEvery: 64 tenant.
			l, err := wal.Open(sp.store, wal.Options{Sync: wal.SyncBatch, BatchAppends: 64})
			wlog, cfg.WAL = l, l
			return err
		}
	}
	st, err := e.start(o)
	if err != nil {
		return nil, err
	}
	eng := st.eng
	var evs []engine.Event
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for c := 0; c < e.stream.Chunks(); c++ {
		evs = e.stream.Events(c, evs[:0])
		if sp.store != nil {
			sp.store.mu.Lock()
			sp.store.cur = c
			sp.store.mu.Unlock()
		}
		start := rec.Now()
		for off := 0; off < len(evs); {
			n, err := eng.TrySubmitBatch(evs[off:])
			off += n
			if err == engine.ErrBusy {
				sp.busy++
				b0 := time.Now()
				time.Sleep(100 * time.Microsecond) // the server's busy-grace step
				sp.blockedNS += int64(time.Since(b0))
			} else if err != nil {
				eng.Close()
				return nil, err
			}
		}
		if err := eng.SyncWAL(); err != nil {
			eng.Close()
			return nil, err
		}
		end := rec.Now()
		sp.submitNS += end - start
		rec.Add(trace.Span{Name: "engine.submit", Lane: "submit", ID: c, Start: start, End: end})
	}
	t0 := time.Now()
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil { // rides the queues: waits for them to drain
		eng.Close()
		return nil, err
	}
	sp.ckptDur, sp.ckptBytes = time.Since(t0), ck.Len()
	t0 = time.Now()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	sp.closeDur = time.Since(t0)
	runtime.ReadMemStats(&m1)
	sp.allocBytes, sp.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	sp.stats = eng.Stats()
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			return nil, err
		}
	}
	fresh, err := e.start(stackOpts{inProcess: true, noConsumer: true})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	err = fresh.eng.Restore(bytes.NewReader(ck.Bytes()))
	sp.restoreDur = time.Since(t0)
	fresh.stop()
	return sp, err
}

// replayWAL times reading a pass's log back: open (scan and validate every
// segment), replay, decode.
func replayWAL(dir string) (events int, d time.Duration, err error) {
	t0 := time.Now()
	fs, err := wal.NewFileStore(dir)
	if err != nil {
		return 0, 0, err
	}
	l, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	err = l.Replay(1, func(r wal.Record) error {
		if r.Type != wal.RecEvent {
			return nil
		}
		if _, _, err := wire.DecodeEvent(r.Data); err != nil {
			return err
		}
		events++
		return nil
	})
	return events, time.Since(t0), err
}

// decodeBodies re-runs the server's decode step over every request body.
func (e *env) decodeBodies() (events int, d time.Duration, err error) {
	t0 := time.Now()
	if e.w.codec == "binary" {
		var evs []engine.Event
		fr := wire.NewFrameReader(nil, 0)
		for _, b := range e.bodies {
			fr.Reset(bytes.NewReader(b))
			for {
				_, payload, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, 0, err
				}
				if evs, err = engine.DecodeWireEvents(payload, evs[:0]); err != nil {
					return 0, 0, err
				}
				events += len(evs)
			}
		}
		return events, time.Since(t0), nil
	}
	for _, b := range e.bodies {
		dec := json.NewDecoder(bytes.NewReader(b))
		for {
			var we server.WireEvent
			if err := dec.Decode(&we); err == io.EOF {
				break
			} else if err != nil {
				return 0, 0, err
			}
			if _, err := we.Event(); err != nil {
				return 0, 0, err
			}
			events++
		}
	}
	return events, time.Since(t0), nil
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	w                 *workload
	seed              int64
	stream            streamInfo
	metrics           map[string]float64
	absent            map[string]bool
	attempted, failed int
	budget            []budgetRow
	totalBusy         float64
	tracePath         string
	spans             int
}

// runTraced performs the traced run: an untraced saturation pass, the same
// pass with every wrapper on, the in-process submit pass, and the stage
// re-runs; then derives the per-layer metrics and writes the trace file.
func runTraced(w *workload, seed int64, seconds float64, scratch string) (*tracedResult, error) {
	tr := &tracedResult{w: w, seed: seed, metrics: map[string]float64{}, absent: map[string]bool{}}
	dir, err := mkScratch(scratch, w.name+"-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, err := setup(w, w.windowsFor(seconds), seed, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s := e.stream
	tr.stream = streamInfo{s.NumEvents, s.NumTasks, s.NumReplies, s.Windows()}
	e.index()
	if e.ref, err = e.reference(false); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}

	pass := func(name string, o stackOpts) (*phase, error) {
		runtime.GC()
		ph, st, err := e.runPhase(name, 0, o, false)
		if err != nil {
			return nil, err
		}
		if err := e.check(name+" pass", ph.stats); err != nil {
			st.stop()
			return nil, err
		}
		tr.attempted += ph.attempted
		tr.failed += ph.failed
		return ph, st.stop()
	}
	plain, err := pass("untraced", stackOpts{})
	if err != nil {
		return nil, err
	}
	t := newTracer(e)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, err := pass("traced", t.opts())
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	t.addSpans(traced)
	// A second untraced pass after the traced one: the box drifts by more
	// than tracing costs, and the mean of before and after cancels a steady
	// drift.
	plain2, err := pass("untraced", stackOpts{})
	if err != nil {
		return nil, err
	}
	plainWall := (float64(plain.wall) + float64(plain2.wall)) / 2

	var sub *submitPass
	if w.http {
		runtime.GC()
		if sub, err = t.submitPass(); err != nil {
			return nil, fmt.Errorf("submit pass: %w", err)
		}
		if err := e.check("submit pass (timing WAL store)", sub.stats); err != nil {
			return nil, err
		}
	}
	spans := t.rec.Spans()

	// A paced pass over the first quarter of the stream, for the
	// generator's own lateness; its ledger is a prefix's and is not checked.
	quarter, err := e.pacedPrefix(0.5*w.satRate, s.Chunks()/4)
	if err != nil {
		return nil, err
	}

	if err := tr.derive(e, t, plainWall, traced, sub, quarter, spans, m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tr.tracePath = filepath.Join(scratch, w.name+".trace.json")
	tr.spans = len(spans)
	return tr, trace.WriteChrome(tr.tracePath, spans)
}

// pacedPrefix sends the first chunks of the stream open loop and returns
// the generator's own lateness, p99 in ms.
func (e *env) pacedPrefix(rate float64, chunks int) (float64, error) {
	if chunks < 2 {
		chunks = 2
	}
	st, err := e.start(stackOpts{tag: "paced"})
	if err != nil {
		return 0, err
	}
	rep, err := loadgen.Run(loadgen.Plan{Chunks: chunks, Due: e.schedule(rate)[:chunks]}, st.target)
	if serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	return (&phase{rate: rate, rep: rep}).lateP99ms(), nil
}
