package engine

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// The engine has one topology: a router in front of max(Shards, 1) shards.
// Shards == 0 only chooses the driver — router and shard run inline in the
// submitter's goroutine instead of on their own — so an inline engine and a
// one-shard engine must be indistinguishable from outside. And because no
// lifecycle count depends on how far the router's worker table lags the
// shards, no shard count's ledger depends on goroutine scheduling.

// topologyLedger is everything a run reports that must not depend on the
// driver: revenue, the funnel, Late, StrategyErrors and the lifecycle
// counters. Tracked and TrackedHeld are gauges of the router's table, which
// settles a tick after the shards retire a worker, so they are left out.
type topologyLedger struct {
	Revenue                                                      float64
	Events, TasksPriced, Quoted, Accepted, Served, Batches, Late int64
	StrategyErrors                                               int64
	Lifecycle                                                    LifecycleStats
}

func topologyLedgerOf(st Stats) topologyLedger {
	lc := st.Lifecycle
	lc.Tracked, lc.TrackedHeld = 0, 0
	return topologyLedger{st.Revenue, st.Events, st.TasksPriced, st.Quoted, st.Accepted, st.Served,
		st.Batches, st.Late, st.StrategyErrors, lc}
}

// TestInlineEqualsOneShard runs each stream through an inline engine
// (Shards: 0) and a one-shard engine and requires the same decisions in the
// same order, the same ledger and byte-identical WAL segments. The streams
// are TestBatchEquivalence's ({WAL off, on} x {auto, quoted}) and the soak
// generator's (seeds 1, 2, 3 and 7, quoted and auto). Before the inline
// engine ran through the router it was a separate engine, and this failed:
// on soak seed 1 quoted the two agreed on every decision but counted Late
// 2 934 against 3 049, because the router counted duplicate onlines from a
// table that lags shard retirements.
func TestInlineEqualsOneShard(t *testing.T) {
	in, _ := testInstance(t)
	for _, withWAL := range []bool{false, true} {
		for _, quoted := range []bool{false, true} {
			evs := streamOf(t, in, 1)
			if quoted {
				evs = quotedStreamOf(in)
			}
			t.Run(fmt.Sprintf("batch/wal=%v/quoted=%v", withWAL, quoted), func(t *testing.T) {
				compareInlineOneShard(t, withWAL, evs, func(shards int) Config {
					cfg := ckConfig(t, in, shards, 2)
					cfg.AutoDecide = !quoted
					return cfg
				})
			})
		}
	}
	budget := soakEvents(t)
	for _, seed := range []int64{1, 2, 3, 7} {
		evs, _, _ := soakStream(seed, budget)
		for _, quoted := range []bool{false, true} {
			t.Run(fmt.Sprintf("soak/seed=%d/quoted=%v", seed, quoted), func(t *testing.T) {
				compareInlineOneShard(t, false, evs, func(shards int) Config {
					return soakConfig(shards, !quoted, false)
				})
			})
		}
	}
}

func compareInlineOneShard(t *testing.T, withWAL bool, evs []Event, cfg func(shards int) Config) {
	t.Helper()
	inline := runCapture(t, cfg(0), withWAL, submitChunked, evs)
	one := runCapture(t, cfg(1), withWAL, submitChunked, evs)
	if inline.stats.TasksPriced == 0 || inline.stats.Served == 0 {
		t.Fatalf("degenerate stream: %+v", inline.stats)
	}
	if !reflect.DeepEqual(inline.decisions, one.decisions) {
		t.Errorf("decision streams differ: %d inline, %d one-shard", len(inline.decisions[0]), len(one.decisions[0]))
	}
	if g, w := topologyLedgerOf(one.stats), topologyLedgerOf(inline.stats); g != w {
		t.Errorf("ledgers differ:\none-shard %+v\ninline    %+v", g, w)
	}
	if !reflect.DeepEqual(inline.wal, one.wal) {
		t.Errorf("WAL segment files differ")
	}
}

// TestShardedLedgerScheduleIndependent runs one soak stream through a
// 4-shard engine ten times and requires one ledger. The router's table
// learns of shard retirements a tick or two late, and how late depends on
// how the goroutines ran; while the router counted duplicate onlines from
// that table, twelve runs of this stream gave four different (Late,
// DuplicateOnlines) pairs, from (963, 664) to (966, 667). CI's race job
// runs this under `go test -race ./...`, where the detector perturbs the
// schedule further.
func TestShardedLedgerScheduleIndependent(t *testing.T) {
	evs, _, _ := soakStream(1, 20_000)
	var want topologyLedger
	for run := 0; run < 10; run++ {
		st := runCapture(t, soakConfig(4, false, false), false, submitChunked, evs).stats
		got := topologyLedgerOf(st)
		if run == 0 {
			want = got
			if got.Lifecycle.DuplicateOnlines == 0 || got.Late == 0 {
				t.Fatalf("degenerate stream: %+v", got)
			}
			continue
		}
		if got != want {
			t.Fatalf("run %d ledger differs from run 0:\n got %+v\nwant %+v", run, got, want)
		}
	}
}

// TestEarlyReplyStaysAnswerable: a reply that arrives before its task has
// been quoted is late, and the task's real reply, after the quote, still
// reaches it — whatever the shard count. The router keeps a task's route
// until its generation rotates out and leaves judging a reply to the shard
// that holds the batch.
func TestEarlyReplyStaysAnswerable(t *testing.T) {
	for _, shards := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Grid: geo.SquareGrid(100, 10), Shards: shards, OnDecision: func(Decision) {}}
			if shards == 0 {
				cfg.Strategy = &fixedPrice{price: 2}
			} else {
				cfg.NewStrategy = func(int) core.Strategy { return &fixedPrice{price: 2} }
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustSubmit(t, e,
				Tick(0),
				WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 5, Y: 5}, Radius: 5, Duration: 100}),
				TaskArrival(market.Task{ID: 10, Origin: geo.Point{X: 6, Y: 6}, Distance: 2}),
				AcceptDecision(10, true), // before the quote: late
				Tick(1),                  // quote
				AcceptDecision(10, true), // the real reply
				Tick(2),                  // finalize
			)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.Late != 1 || st.Served != 1 || st.Revenue != 4 {
				t.Fatalf("late=%d served=%d revenue=%v, want 1/1/4", st.Late, st.Served, st.Revenue)
			}
		})
	}
}

// TestRestoreInlineV1Fixtures restores version-1 checkpoints written by the
// engine as it was before it had one topology, when Shards: 0 built a bare
// shard with no router, so the files have no worker table and no task
// routes. Each holds a prefix of soak seed 1 (cut events of a 20 000-event
// stream) with a quoted batch pending:
//
//   - inline-v1-replies.ckpt is cut between two accepting replies to the
//     pending batch, which holds one provisional assignment;
//   - inline-v1-open.ckpt is cut after a period's last arrival, and the
//     next period's replies answer those open tasks' quotes.
//
// The files were generated once and must never be regenerated: they stand
// for checkpoints already on disk. Each restores into an inline and into a
// one-shard engine (an exact layout, pending batch included), resumes the
// stream, and must reach the uninterrupted run's revenue and ledger.
// Restore rebuilds the router state such a file lacks: the worker table
// from the pools, held workers from the pending batch, and quote routes for
// the pending and open tasks. Without the table the resumed runs reach the
// same revenue but count offlines and moves of pooled workers as late;
// without the routes, replies to restored quotes are lost.
func TestRestoreInlineV1Fixtures(t *testing.T) {
	evs, _, _ := soakStream(1, 20_000)
	want := topologyLedgerOf(runCapture(t, soakConfig(0, false, false), false, submitChunked, evs).stats)
	for _, fx := range []struct {
		file   string
		cut    int
		period int // the last tick before the cut
	}{
		{"testdata/inline-v1-replies.ckpt", 10_011, 1365},
		{"testdata/inline-v1-open.ckpt", 10_009, 1364},
	} {
		ck, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/shards=%d", fx.file, shards), func(t *testing.T) {
				e, err := New(soakConfig(shards, false, false))
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Restore(bytes.NewReader(ck)); err != nil {
					t.Fatal(err)
				}
				if got := e.RestoredPeriod(); got != fx.period {
					t.Fatalf("RestoredPeriod() = %d, want %d", got, fx.period)
				}
				if err := submitChunked(e, evs[fx.cut:]); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if got := topologyLedgerOf(e.Stats()); got != want {
					t.Fatalf("resumed run diverged:\nrestored      %+v\nuninterrupted %+v", got, want)
				}
			})
		}
	}
}
