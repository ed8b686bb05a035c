package engine

// Crash-injection property harness for the write-ahead log. The property:
// for EVERY injected crash point — a process kill that loses the unsynced
// page cache, a torn write that runs out of its byte budget mid-frame, an
// fsync that errors and downs the store — recovering (last durable
// checkpoint + WAL tail replay) and resuming the stream from the recovered
// event count yields revenue and a lifecycle ledger byte-identical to the
// uninterrupted run. Covered across det + 4-shard engines, grid + road
// backends, and auto-decide + quoted (mid-flight batch) streams, with
// segments small enough that rotation and checkpoint truncation happen
// constantly.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/wal"
)

// walCrashOptions keeps segments tiny so every run rotates segments many
// times, and batches fsyncs so kills genuinely lose acknowledged-but-
// unsynced records (the harness must recover through that, not around it).
func walCrashOptions() wal.Options {
	return wal.Options{SegmentBytes: 4 << 10, Sync: wal.SyncBatch, BatchAppends: 8}
}

// streamOf collects the canonical replay stream into a slice so the harness
// can cut it at arbitrary event indices.
func streamOf(t *testing.T, in *market.Instance, window int) []Event {
	t.Helper()
	var evs []Event
	err := StreamEvents(in, window, ReplayOpts{}, func(ev Event) error {
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// quotedStreamOf builds a deterministic quoted-mode stream: every period
// tick is followed by seeded-random accept/reject decisions for the tasks
// quoted in the previous window, so crash points land between a quote and
// its acceptance and recovery must restore mid-flight batches exactly.
func quotedStreamOf(in *market.Instance) []Event {
	rng := rand.New(rand.NewSource(41))
	tasksByPeriod := in.TasksByPeriod()
	arrivals := in.WorkersByStart()
	var evs []Event
	var open []int
	for p := 0; p < in.Periods; p++ {
		evs = append(evs, Tick(p))
		for _, id := range open {
			if rng.Float64() < 0.8 {
				evs = append(evs, AcceptDecision(id, rng.Float64() < 0.6))
			}
		}
		open = open[:0]
		for _, w := range arrivals[p] {
			evs = append(evs, WorkerOnline(w))
		}
		for _, task := range tasksByPeriod[p] {
			evs = append(evs, TaskArrival(task))
			open = append(open, task.ID)
		}
	}
	evs = append(evs, Tick(in.Periods), Tick(in.Periods+1))
	return evs
}

// walCrashSpec is one injected fault scenario.
type walCrashSpec struct {
	name    string
	fp      wal.Failpoints
	killAt  int // kill the store before submitting this event index (-1: never)
	ckEvery int // checkpoint cadence in events (0: no checkpoints)
	// chunked submits the stream through SubmitBatch in crashChunks sizes
	// instead of one event at a time, so the fault lands inside a batched
	// write; the harness demands that it does.
	chunked bool
}

// crashChunks are the chunked leg's SubmitBatch sizes, cycled: single
// events, a 97-event chunk that straddles the first 4 KiB segment rotation
// (events 13..109), and a 251-event chunk that spans several segments.
var crashChunks = []int{1, 2, 3, 7, 97, 13, 1, 5, 251, 61}

func walCrashSpecs(n int) []walCrashSpec {
	lose := wal.Failpoints{LoseUnsynced: true}
	return []walCrashSpec{
		// Process kills at a spread of stream positions. Checkpoints (where
		// enabled) truncate the log, so late kills recover from snapshot +
		// short tail; the no-checkpoint variants replay the whole log.
		{name: "kill-early", fp: lose, killAt: 2},
		{name: "kill-early-ck", fp: lose, killAt: n / 6, ckEvery: n / 8},
		{name: "kill-mid", fp: lose, killAt: n / 2},
		{name: "kill-mid-ck", fp: lose, killAt: n / 2, ckEvery: n / 5},
		{name: "kill-late-ck", fp: lose, killAt: n - 2, ckEvery: n / 5},
		// Torn write: the byte budget runs out mid-frame, leaving a short
		// suffix recovery must truncate away.
		{name: "torn-early", fp: wal.Failpoints{CrashAfterBytes: 600, LoseUnsynced: true}, killAt: -1},
		{name: "torn-mid-ck", fp: wal.Failpoints{CrashAfterBytes: int64(20 * n), LoseUnsynced: true},
			killAt: -1, ckEvery: n / 5},
		// A scripted fsync error downs the store mid-group-commit.
		{name: "sync-fault", fp: wal.Failpoints{FailSyncAt: 7, LoseUnsynced: true}, killAt: -1},
		// No mid-run fault at all: the kill lands after the final event,
		// losing whatever the last group commit hadn't flushed.
		{name: "kill-at-end-ck", fp: lose, killAt: -1, ckEvery: n / 5},
	}
}

// TestWALCrashRecoveryExact is the tentpole acceptance property.
func TestWALCrashRecoveryExact(t *testing.T) {
	for name, in := range churnBackends(t) {
		for _, shards := range []int{0, 4} {
			for _, quoted := range []bool{false, true} {
				in := in
				shards := shards
				quoted := quoted
				variant := "/auto"
				if quoted {
					variant = "/quoted"
				}
				t.Run(name+modeName(shards)+variant, func(t *testing.T) {
					if testing.Short() && (quoted || name == "road") {
						t.Skip("short mode: auto-decide grid only")
					}
					cfg := func() Config {
						c := ckConfig(t, in, shards, 2)
						c.AutoDecide = !quoted
						return c
					}

					// Uninterrupted reference run over the same event slice.
					ref, err := New(cfg())
					if err != nil {
						t.Fatal(err)
					}
					var events []Event
					if quoted {
						events = quotedStreamOf(in)
					} else {
						events = streamOf(t, in, ref.Window())
					}
					for i, ev := range events {
						if err := ref.Submit(ev); err != nil {
							t.Fatalf("reference event %d: %v", i, err)
						}
					}
					if err := ref.Close(); err != nil {
						t.Fatal(err)
					}
					want := ref.Stats()
					if want.Revenue <= 0 {
						t.Fatalf("reference run accrued no revenue: %+v", want)
					}

					for _, spec := range walCrashSpecs(len(events)) {
						spec := spec
						t.Run(spec.name, func(t *testing.T) {
							runWALCrash(t, cfg, events, want, spec)
						})
					}
				})
			}
		}
	}
}

// runWALCrash drives one crash scenario end to end: run against a
// failpoint-wrapped store until the injected fault (or kill point) hits,
// then reopen the surviving bytes, recover a fresh engine, resume the
// stream at the recovered event count, and demand exact equality with the
// uninterrupted run.
func runWALCrash(t *testing.T, cfg func() Config, events []Event, want Stats, spec walCrashSpec) {
	t.Helper()
	mem := wal.NewMemStore()
	fp := wal.NewFailpointStore(mem, spec.fp)
	log, err := wal.Open(fp, walCrashOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	c.WAL = log
	eng, err := New(c)
	if err != nil {
		t.Fatal(err)
	}

	// Run until the fault hits. crashed is the event index the run died at
	// (-1 if it reached the end); ck is the latest checkpoint, held OUTSIDE
	// the failpoint store: it models a snapshot file already written
	// atomically and fsynced (the server's WriteCheckpointAtomic), which a
	// crash therefore cannot damage.
	run := runSinglyUntilCrash
	if spec.chunked {
		run = runChunkedUntilCrash
	}
	crashed, ck := run(t, eng, log, fp, events, spec)
	fp.Kill() // idempotent: the process dies wherever the loop stopped
	_ = eng.Close()

	// Guard the harness itself: a scenario that scripts a fault must have
	// actually crashed mid-stream, or the "recovery" below proves nothing.
	wantCrash := spec.killAt >= 0 || spec.fp.CrashAfterBytes > 0 || spec.fp.FailSyncAt > 0
	if wantCrash && crashed < 0 {
		t.Fatalf("scenario never crashed: the injected fault did not fire within %d events", len(events))
	}
	if spec.killAt >= 0 && crashed != spec.killAt {
		t.Fatalf("crashed at event %d, kill was scheduled at %d", crashed, spec.killAt)
	}

	// Recovery: reopen the surviving bytes directly (the failpoint layer
	// died with the "machine"), rebuild state, resume, compare.
	log2, err := wal.Open(mem, walCrashOptions())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer log2.Close()
	c2 := cfg()
	c2.WAL = log2
	rec, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	var snap io.Reader
	if ck != nil {
		snap = bytes.NewReader(ck)
	}
	if _, err := rec.RecoverWAL(snap); err != nil {
		t.Fatalf("RecoverWAL: %v", err)
	}
	resume := int(rec.Stats().Events)
	if resume > len(events) {
		t.Fatalf("recovered %d events, stream only has %d", resume, len(events))
	}
	if crashed >= 0 && resume > crashed {
		t.Fatalf("recovered %d events but only %d were ever submitted", resume, crashed)
	}
	t.Logf("crashed at %d, recovered %d of %d events (snapshot: %v)", crashed, resume, len(events), ck != nil)
	for i, ev := range events[resume:] {
		if err := rec.Submit(ev); err != nil {
			t.Fatalf("resume event %d: %v", resume+i, err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got := rec.Stats()

	if got.Revenue != want.Revenue {
		t.Fatalf("recovered revenue %v != uninterrupted %v (exact equality required; resumed at %d/%d)",
			got.Revenue, want.Revenue, resume, len(events))
	}
	if ledgerOf(got) != ledgerOf(want) {
		t.Fatalf("lifecycle ledger mismatch (resumed at %d/%d):\nrecovered     %+v\nuninterrupted %+v",
			resume, len(events), got.Lifecycle, want.Lifecycle)
	}
	if got.Events != want.Events || got.TasksPriced != want.TasksPriced ||
		got.Accepted != want.Accepted || got.Served != want.Served || got.Batches != want.Batches {
		t.Fatalf("funnel mismatch (resumed at %d/%d): recovered %d/%d/%d/%d/%d, uninterrupted %d/%d/%d/%d/%d",
			resume, len(events),
			got.Events, got.TasksPriced, got.Accepted, got.Served, got.Batches,
			want.Events, want.TasksPriced, want.Accepted, want.Served, want.Batches)
	}
}

// TestWALCrashRecoveryChunked is TestWALCrashRecoveryExact's chunked leg:
// the stream goes in through SubmitBatch in awkward sizes, so every fault
// lands inside one batched write — a torn byte budget mid-batch, past a
// segment rotation the same batch made, and an fsync that fails at the
// rotation inside a batch. Recovery plus resume must still equal the
// uninterrupted run exactly.
func TestWALCrashRecoveryChunked(t *testing.T) {
	for name, in := range churnBackends(t) {
		for _, shards := range []int{0, 4} {
			in, shards := in, shards
			t.Run(name+modeName(shards), func(t *testing.T) {
				if testing.Short() && name == "road" {
					t.Skip("short mode: grid only")
				}
				cfg := func() Config { return ckConfig(t, in, shards, 2) }
				ref, err := New(cfg())
				if err != nil {
					t.Fatal(err)
				}
				events := streamOf(t, in, ref.Window())
				if err := ref.SubmitBatch(events); err != nil {
					t.Fatal(err)
				}
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				want := ref.Stats()
				n := len(events)
				for _, spec := range []walCrashSpec{
					// The 97-event chunk starts below the first 4 KiB rotation
					// and ends past it: the budget tears it after the rotation.
					{name: "torn-batch-rotated", fp: wal.Failpoints{CrashAfterBytes: 5000, LoseUnsynced: true}, killAt: -1},
					// Inside the 97-event chunk of the second cycle (events
					// 454..550), past a rotation it made, after a checkpoint
					// truncated the log.
					{name: "torn-batch-ck", fp: wal.Failpoints{CrashAfterBytes: 37000, LoseUnsynced: true},
						killAt: -1, ckEvery: n / 5},
					// Syncs 1 and 3 close the 7- and 97-event chunks; sync 2
					// seals the first segment in the middle of the 97.
					{name: "sync-fault-at-rotation", fp: wal.Failpoints{FailSyncAt: 2, LoseUnsynced: true}, killAt: -1},
				} {
					spec := spec
					spec.chunked = true
					t.Run(spec.name, func(t *testing.T) {
						runWALCrash(t, cfg, events, want, spec)
					})
				}
			})
		}
	}
}

// runSinglyUntilCrash submits events one at a time, checkpointing every
// spec.ckEvery events, until the injected fault or the scheduled kill stops
// it. It returns the event index the run died at (-1 if it reached the end)
// and the latest checkpoint.
func runSinglyUntilCrash(t *testing.T, eng *Engine, log *wal.Log, fp *wal.FailpointStore, events []Event, spec walCrashSpec) (crashed int, ck []byte) {
	t.Helper()
	for i, ev := range events {
		if i == spec.killAt {
			fp.Kill()
			return i, ck
		}
		if err := eng.Submit(ev); err != nil {
			if !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("event %d: submit failed with a non-injected error: %v", i, err)
			}
			return i, ck
		}
		if spec.ckEvery > 0 && (i+1)%spec.ckEvery == 0 {
			ckLSN := eng.WALLastLSN()
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); err != nil {
				if !errors.Is(err, wal.ErrInjected) {
					t.Fatalf("event %d: checkpoint failed with a non-injected error: %v", i, err)
				}
				return i, ck // fault tripped by the checkpoint's own sync/marker
			}
			ck = buf.Bytes()
			// Reclaim segments the snapshot now covers; recovery must work
			// from a log whose history starts mid-stream.
			if _, err := log.TruncateBefore(ckLSN + 1); err != nil && !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("event %d: truncate: %v", i, err)
			}
		}
	}
	return -1, ck
}

// runChunkedUntilCrash submits events in crashChunks sizes, checkpointing
// whenever a chunk crosses a multiple of spec.ckEvery, until the injected
// fault stops it. It returns the index of the failed chunk's last event
// (that event can never survive: the fault tore or left unsynced a record
// at or before it) and the latest checkpoint. It fails the test unless the
// fault landed strictly inside a multi-event batch: the log took some of
// the chunk's records, not all.
func runChunkedUntilCrash(t *testing.T, eng *Engine, log *wal.Log, _ *wal.FailpointStore, events []Event, spec walCrashSpec) (crashed int, ck []byte) {
	t.Helper()
	for i, off := 0, 0; off < len(events); i++ {
		end := min(off+crashChunks[i%len(crashChunks)], len(events))
		before, segs := log.LastLSN(), log.Stats().Segments
		if err := eng.SubmitBatch(events[off:end]); err != nil {
			if !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("events %d..%d: submit failed with a non-injected error: %v", off, end-1, err)
			}
			logged := int(log.LastLSN() - before)
			t.Logf("fault inside a %d-event batch: %d records logged, %d segment(s) opened by it",
				end-off, logged, log.Stats().Segments-segs)
			if logged <= 0 || logged >= end-off {
				t.Fatalf("fault did not land strictly inside a batch: %d of %d records logged", logged, end-off)
			}
			return end - 1, ck
		}
		if spec.ckEvery > 0 && end/spec.ckEvery > off/spec.ckEvery {
			ckLSN := eng.WALLastLSN()
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); err != nil {
				if !errors.Is(err, wal.ErrInjected) {
					t.Fatalf("events ..%d: checkpoint failed with a non-injected error: %v", end-1, err)
				}
				t.Fatalf("fault hit a checkpoint after event %d, not a batch", end-1)
			}
			ck = buf.Bytes()
			if _, err := log.TruncateBefore(ckLSN + 1); err != nil && !errors.Is(err, wal.ErrInjected) {
				t.Fatalf("events ..%d: truncate: %v", end-1, err)
			}
		}
		off = end
	}
	return -1, ck
}

// TestWALSubmitGate asserts the refusal that makes recovery safe: an engine
// attached to a log with unreplayed history must reject Submit until
// RecoverWAL has run, so new appends can never diverge from the tail.
func TestWALSubmitGate(t *testing.T) {
	mem := wal.NewMemStore()
	log, err := wal.Open(mem, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e1, Tick(0))
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	log2, err := wal.Open(mem, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	e2, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}, WAL: log2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Submit(Tick(1)); err == nil {
		t.Fatal("Submit succeeded on an unrecovered engine with WAL history")
	}
	if n, err := e2.RecoverWAL(nil); err != nil || n != 1 {
		t.Fatalf("RecoverWAL: n=%d err=%v, want 1 replayed", n, err)
	}
	mustSubmit(t, e2, Tick(1))
	if got := e2.WALLastLSN(); got != 2 {
		t.Fatalf("WALLastLSN = %d, want 2", got)
	}
	_ = e2.Close()
}
