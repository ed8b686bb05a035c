package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/wal"
)

// streamedEvents collects the canonical replay stream of the shared test
// instance as a flat slice.
func streamedEvents(t *testing.T) []Event {
	t.Helper()
	in, _ := testInstance(t)
	return streamOf(t, in, 1)
}

// runStream drives evs into a freshly built engine via submit and returns
// its final stats.
func runStream(t *testing.T, cfg Config, evs []Event, submit func(*Engine, []Event) error) Stats {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(e, evs); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return e.Stats()
}

func submitSingly(e *Engine, evs []Event) error {
	for _, ev := range evs {
		if err := e.Submit(ev); err != nil {
			return err
		}
	}
	return nil
}

// submitChunked feeds evs through SubmitBatch in awkward chunk sizes: single
// events, primes that land batch boundaries mid-period, and one larger than
// an envelope.
func submitChunked(e *Engine, evs []Event) error {
	sizes := []int{1, 2, 3, 7, 97, batchChunk + 13, 1, 5, 997}
	for i, off := 0, 0; off < len(evs); i++ {
		end := min(off+sizes[i%len(sizes)], len(evs))
		if err := e.SubmitBatch(evs[off:end]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// chunkingRun is everything one run of a stream leaves behind that must not
// depend on how the stream was cut into submissions.
type chunkingRun struct {
	decisions [][]Decision // per shard, in emission order, latency zeroed
	stats     Stats
	wal       map[string][]byte // segment name -> bytes (nil without a WAL)
}

// runChunking submits evs to a fresh engine of the given shape and collects
// its decisions, final stats and WAL segment files.
func runChunking(t *testing.T, in *market.Instance, shards int, quoted, withWAL bool,
	submit func(*Engine, []Event) error, evs []Event) chunkingRun {
	t.Helper()
	cfg := ckConfig(t, in, shards, 2)
	cfg.AutoDecide = !quoted
	return runCapture(t, cfg, withWAL, submit, evs)
}

// runCapture submits evs to a fresh engine built from cfg and collects its
// decisions (per shard of cfg.Partitioner), final stats and WAL segment
// files.
func runCapture(t *testing.T, cfg Config, withWAL bool, submit func(*Engine, []Event) error, evs []Event) chunkingRun {
	t.Helper()
	run := chunkingRun{decisions: make([][]Decision, max(cfg.Shards, 1))}
	var mu sync.Mutex
	cfg.OnDecision = func(d Decision) {
		d.Latency = 0
		si := 0
		if cfg.Partitioner != nil {
			si = cfg.Partitioner.ShardOf(d.Cell)
		}
		mu.Lock()
		run.decisions[si] = append(run.decisions[si], d)
		mu.Unlock()
	}
	var mem *wal.MemStore
	if withWAL {
		mem = wal.NewMemStore()
		log, err := wal.Open(mem, wal.Options{SegmentBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		cfg.WAL = log
	}
	run.stats = runStream(t, cfg, evs, submit)
	if mem != nil {
		run.wal = make(map[string][]byte)
		names, err := mem.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := mem.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			b := make([]byte, size)
			if _, err := f.ReadAt(b, 0); err != nil && size > 0 {
				t.Fatal(err)
			}
			run.wal[name] = b
		}
	}
	return run
}

// TestBatchEquivalence is chunking invariance: there is one ingest path, so
// the same stream submitted one event at a time, in awkward chunk sizes, as
// one batch and through ReplayWith must leave identical decisions in order,
// an identical revenue/funnel/lifecycle ledger and byte-identical WAL
// segment files — over {det, 2 shards} x {WAL off, on} x {auto, quoted}.
func TestBatchEquivalence(t *testing.T) {
	in, _ := testInstance(t)
	whole := func(e *Engine, evs []Event) error { return e.SubmitBatch(evs) }
	replay := func(e *Engine, _ []Event) error { _, err := ReplayWith(e, in, ReplayOpts{}); return err }
	for _, shards := range []int{0, 2} {
		for _, withWAL := range []bool{false, true} {
			for _, quoted := range []bool{false, true} {
				variant, evs := "auto", streamOf(t, in, 1)
				cuts := map[string]func(*Engine, []Event) error{"chunked": submitChunked, "whole": whole, "replay": replay}
				if quoted {
					variant, evs = "quoted", quotedStreamOf(in)
					delete(cuts, "replay") // ReplayWith emits the canonical auto stream only
				}
				t.Run(fmt.Sprintf("%s/wal=%v/%s", modeName(shards)[1:], withWAL, variant), func(t *testing.T) {
					want := runChunking(t, in, shards, quoted, withWAL, submitSingly, evs)
					if want.stats.Revenue <= 0 || want.stats.Events != int64(len(evs)) {
						t.Fatalf("reference run: %+v", want.stats)
					}
					if withWAL && len(want.wal) < 2 {
						t.Fatalf("reference WAL has %d segments; rotation was not exercised", len(want.wal))
					}
					for cut, submit := range cuts {
						got := runChunking(t, in, shards, quoted, withWAL, submit, evs)
						if !reflect.DeepEqual(got.decisions, want.decisions) {
							t.Errorf("%s: decision stream differs from one-at-a-time submission", cut)
						}
						g, w := got.stats, want.stats
						if g.Revenue != w.Revenue || ledgerOf(g) != ledgerOf(w) ||
							[7]int64{g.Events, g.TasksPriced, g.Quoted, g.Accepted, g.Served, g.Batches, g.Late} !=
								[7]int64{w.Events, w.TasksPriced, w.Quoted, w.Accepted, w.Served, w.Batches, w.Late} {
							t.Errorf("%s: ledger differs:\n got %+v\nwant %+v", cut, g, w)
						}
						if !reflect.DeepEqual(got.wal, want.wal) {
							t.Errorf("%s: WAL segment files differ from one-at-a-time submission", cut)
						}
					}
				})
			}
		}
	}
}

// TestBatchWALRecovery: events ingested through SubmitBatch are individually
// durable — recovering the log into a fresh engine reproduces the batch
// run's revenue exactly.
func TestBatchWALRecovery(t *testing.T) {
	evs := streamedEvents(t)
	in, _ := testInstance(t)
	mem := wal.NewMemStore()
	log, err := wal.Open(mem, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(l *wal.Log) Config {
		return Config{Grid: in.Grid, Strategy: &fixedPrice{price: 2}, AutoDecide: true,
			OnDecision: func(Decision) {}, WAL: l}
	}
	want := runStream(t, cfg(log), evs, submitChunked)
	log.Close()

	log2, err := wal.Open(mem, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	e2, err := New(cfg(log2))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := e2.RecoverWAL(nil); err != nil || n != len(evs) {
		t.Fatalf("RecoverWAL: n=%d err=%v, want %d", n, err, len(evs))
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	got := e2.Stats()
	if got.Revenue != want.Revenue || got.Served != want.Served || got.Events != want.Events {
		t.Fatalf("recovered run diverged: rev %v/%v served %d/%d events %d/%d",
			got.Revenue, want.Revenue, got.Served, want.Served, got.Events, want.Events)
	}
}

// TestTrySubmitBatchPrefix saturates a single-shard engine (strategy blocked
// mid-batch, tiny buffers) and asserts the partial-accept contract: a batch
// that does not fit is accepted as a prefix with ErrBusy, repeated calls
// make no progress while saturated, and after the shard unblocks a caller
// resuming from the accepted offset loses nothing and duplicates nothing.
func TestTrySubmitBatchPrefix(t *testing.T) {
	gate := make(chan struct{})
	const buffer = 8
	e, err := New(Config{
		Grid: geo.SquareGrid(100, 4), Shards: 1, Buffer: buffer, AutoDecide: true,
		NewStrategy: func(int) core.Strategy { return &gatedPrice{gate: gate} },
		OnDecision:  func(Decision) {},
	})
	if err != nil {
		t.Fatal(err)
	}

	in, _ := testInstance(t)
	var donor []Event
	if err := StreamEvents(in, 1, ReplayOpts{}, func(ev Event) error {
		if ev.Kind == KindTaskArrival {
			donor = append(donor, ev)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(donor) < 4*buffer {
		t.Fatalf("donor stream too small: %d tasks", len(donor))
	}

	// Stall the shard: one task plus the closing tick blocks Prices on the
	// gate, then single-event submits fill shard and router channels.
	mustSubmit(t, e, donor[0], Tick(1))
	singles := 2
	for {
		err := e.TrySubmit(donor[1])
		if err == ErrBusy {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		singles++
	}

	// The router may still be shuffling the last singles into the stalled
	// shard, so retry until a call makes no progress at all: every accepted
	// count is a prefix, and the engine's bounded buffers guarantee the
	// 2*buffer batch can never be fully admitted while the shard is blocked.
	batch := donor[2 : 2+2*buffer]
	off := 0
	for off < len(batch) {
		n, err := e.TrySubmitBatch(batch[off:])
		off += n
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrBusy) {
			t.Fatalf("TrySubmitBatch: n=%d err=%v, want ErrBusy under saturation", n, err)
		}
		if n == 0 {
			break // saturated: no progress
		}
	}
	if off >= len(batch) {
		t.Fatalf("saturated engine accepted the whole %d-event batch", len(batch))
	}

	close(gate)
	if err := e.SubmitBatch(batch[off:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(singles + len(batch))
	if got := e.Stats().Events; got != want {
		t.Fatalf("event conservation broken: engine saw %d events, resume protocol sent %d", got, want)
	}
}

// TestBatchRejectsInvalidKind: one invalid event anywhere rejects the whole
// batch before anything is accepted.
func TestBatchRejectsInvalidKind(t *testing.T) {
	e, err := New(Config{Grid: geo.SquareGrid(100, 4), Strategy: &fixedPrice{price: 1},
		AutoDecide: true, OnDecision: func(Decision) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := []Event{Tick(0), {Kind: kindEvict, WorkerID: 1}, Tick(1)}
	if n, err := e.TrySubmitBatch(bad); err == nil || n != 0 {
		t.Fatalf("batch with internal kind: n=%d err=%v, want 0 and an error", n, err)
	}
	if got := e.Stats().Events; got != 0 {
		t.Fatalf("rejected batch leaked %d events", got)
	}
}

// TestConcurrentDetSubmitters: the engine serializes its own callers, so
// goroutines submitting straight at a deterministic engine — which applies
// inline in the caller's goroutine — neither race nor lose events, and the
// WAL holds exactly one record per accepted event. Run under -race.
func TestConcurrentDetSubmitters(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) { concurrentDetSubmitters(t, withWAL) })
	}
}

func concurrentDetSubmitters(t *testing.T, withWAL bool) {
	cfg := Config{Grid: geo.SquareGrid(100, 4), Strategy: &fixedPrice{price: 1},
		AutoDecide: true, OnDecision: func(Decision) {}}
	if withWAL {
		log, err := wal.Open(wal.NewMemStore(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		cfg.WAL = log
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e, Tick(0))
	const submitters, perSubmitter = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var batch []Event
			for i := 0; i < perSubmitter; i++ {
				id := g*perSubmitter + i
				at := geo.Point{X: float64(id % 100), Y: float64(id / 100 * 5 % 100)}
				ev := TaskArrival(market.Task{ID: id, Origin: at, Dest: at, Distance: 1, Valuation: 2})
				if i%2 == 0 {
					if err := e.TrySubmit(ev); err != nil {
						t.Error(err)
					}
					continue
				}
				if batch = append(batch, ev); len(batch) == 7 {
					if n, err := e.TrySubmitBatch(batch); err != nil || n != len(batch) {
						t.Errorf("TrySubmitBatch: n=%d err=%v", n, err)
					}
					batch = batch[:0]
				}
			}
			if err := e.SubmitBatch(batch); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	mustSubmit(t, e, Tick(1))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	const tasks = submitters * perSubmitter
	if st.Events != tasks+2 || st.TasksPriced != tasks {
		t.Fatalf("events %d priced %d, want %d/%d", st.Events, st.TasksPriced, tasks+2, tasks)
	}
	if withWAL && e.WALLastLSN() != tasks+2 {
		t.Fatalf("WAL holds %d records, want one per event (%d)", e.WALLastLSN(), tasks+2)
	}
}

// gatedPrice blocks its first Prices call until the gate closes: the lever
// that saturates a shard for the backpressure tests.
type gatedPrice struct {
	fixedPrice
	gate    <-chan struct{}
	blocked bool
}

func (g *gatedPrice) Prices(ctx *core.PeriodContext) []float64 {
	if !g.blocked {
		g.blocked = true
		<-g.gate
	}
	return g.fixedPrice.Prices(ctx)
}

// TestAdmitChunkWALAllocs pins the durable ingest path: once its buffers are
// warm, a chunk of 325 events — encoded, appended to the log as one batch
// and applied — makes no allocation.
func TestAdmitChunkWALAllocs(t *testing.T) {
	log, err := wal.Open(wal.NewMemStore(), wal.Options{Sync: wal.SyncBatch, BatchAppends: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Decisions and log-offs for unknown ids: every kind of record length,
	// and applying them only counts them late.
	evs := make([]Event, 325)
	for i := range evs {
		if i%2 == 0 {
			evs[i] = AcceptDecision(i, i%4 == 0)
		} else {
			evs[i] = WorkerOffline(i)
		}
	}
	now := time.Now()
	admit := func() {
		e.mu.Lock()
		n, err := e.admitChunk(evs, now, log)
		e.mu.Unlock()
		if n != len(evs) || err != nil {
			t.Fatalf("admitChunk admitted %d of %d: %v", n, len(evs), err)
		}
	}
	admit() // size the engine's encode buffers; AllocsPerRun adds 51 more chunks
	if allocs := testing.AllocsPerRun(50, admit); allocs != 0 {
		t.Fatalf("steady-state admitChunk with a WAL made %.0f allocations per chunk, want 0", allocs)
	}
	if got, want := log.LastLSN(), uint64(52*len(evs)); got != want {
		t.Fatalf("log holds %d records, want %d", got, want)
	}
}
