package engine

import (
	"bytes"
	"errors"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/window"
)

// ckConfig builds the engine config for a checkpoint scenario: MAPS per
// shard (warm-started from one shared calibration, so strategy state is
// non-trivial and must round-trip) over the given backend.
func ckConfig(t *testing.T, in *market.Instance, shards int, basePrice float64) Config {
	t.Helper()
	mk := func(int) core.Strategy {
		m, err := core.NewMAPS(core.DefaultParams(), basePrice)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cfg := Config{
		Space:      in.Spatial(),
		Shards:     shards,
		AutoDecide: true,
		OnDecision: func(Decision) {},
	}
	if shards > 0 {
		cfg.Partitioner = spatial.BalancedPartition(in.Spatial(), shards)
		cfg.NewStrategy = mk
	} else {
		cfg.Strategy = mk(0)
	}
	return cfg
}

func ledgerOf(st Stats) [8]int64 {
	lc := st.Lifecycle
	return [8]int64{lc.Onlines, lc.DuplicateOnlines, lc.Moves, lc.Migrations,
		lc.RetiredAssigned, lc.RetiredExpired, lc.RetiredOffline, lc.Pooled}
}

// TestCheckpointRestoreRoundTrip is the crash-recovery acceptance
// criterion: run half the stream, checkpoint, restore into a fresh engine,
// finish the stream — revenue and the lifecycle ledger must be identical to
// the uninterrupted run, across det/4-shard and grid/road backends.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	for name, in := range churnBackends(t) {
		for _, shards := range []int{0, 4} {
			in := in
			t.Run(name+modeName(shards), func(t *testing.T) {
				cut := in.Periods / 2

				// Uninterrupted reference run.
				ref, err := New(ckConfig(t, in, shards, 2))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ReplayWith(ref, in, ReplayOpts{}); err != nil {
					t.Fatal(err)
				}
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				want := ref.Stats()
				if want.Revenue <= 0 {
					t.Fatalf("reference run accrued no revenue: %+v", want)
				}

				// Interrupted run: replay up to the cut, checkpoint, "crash".
				var ck bytes.Buffer
				first, err := New(ckConfig(t, in, shards, 2))
				if err != nil {
					t.Fatal(err)
				}
				_, err = ReplayWith(first, in, ReplayOpts{AfterPeriod: func(p int) error {
					if p == cut-1 {
						if err := first.Checkpoint(&ck); err != nil {
							return err
						}
						return errCheckpointAbort // the "crash"
					}
					return nil
				}})
				if !errors.Is(err, errCheckpointAbort) || ck.Len() == 0 {
					t.Fatalf("expected aborted replay with a written checkpoint (err=%v, len=%d)", err, ck.Len())
				}
				_ = first.Close()

				// Restore into a fresh engine and finish the stream.
				second, err := New(ckConfig(t, in, shards, 2))
				if err != nil {
					t.Fatal(err)
				}
				if err := second.Restore(bytes.NewReader(ck.Bytes())); err != nil {
					t.Fatal(err)
				}
				if got := second.RestoredPeriod(); got != cut-1 {
					t.Fatalf("RestoredPeriod() = %d, want %d", got, cut-1)
				}
				if _, err := ReplayWith(second, in, ReplayOpts{From: second.RestoredPeriod() + 1}); err != nil {
					t.Fatal(err)
				}
				if err := second.Close(); err != nil {
					t.Fatal(err)
				}
				got := second.Stats()

				if got.Revenue != want.Revenue {
					t.Fatalf("restored revenue %v != uninterrupted %v (exact equality required)",
						got.Revenue, want.Revenue)
				}
				if got.Served != want.Served || got.Accepted != want.Accepted ||
					got.TasksPriced != want.TasksPriced || got.Batches != want.Batches {
					t.Fatalf("funnel mismatch: restored %d/%d/%d/%d, uninterrupted %d/%d/%d/%d",
						got.TasksPriced, got.Accepted, got.Served, got.Batches,
						want.TasksPriced, want.Accepted, want.Served, want.Batches)
				}
				if ledgerOf(got) != ledgerOf(want) {
					t.Fatalf("lifecycle ledger mismatch:\nrestored      %+v\nuninterrupted %+v",
						got.Lifecycle, want.Lifecycle)
				}
			})
		}
	}
}

// checkpointAbort makes ReplayWith stop right after the checkpoint is
// written, simulating the crash.
var errCheckpointAbort = errors.New("checkpoint taken, aborting replay")

// TestCheckpointRestoreQuotedPending checkpoints a quoted batch mid-flight —
// prices out, one acceptance provisionally assigned, one quote unanswered —
// and verifies the restored engine finalizes it exactly like an
// uninterrupted one.
func TestCheckpointRestoreQuotedPending(t *testing.T) {
	build := func() *Engine {
		e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: &fixedPrice{price: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	prefix := func(e *Engine) {
		mustSubmit(t, e,
			Tick(0),
			WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
			WorkerOnline(market.Worker{ID: 2, Loc: geo.Point{X: 12, Y: 10}, Radius: 10, Duration: 100}),
			TaskArrival(market.Task{ID: 100, Origin: geo.Point{X: 11, Y: 11}, Distance: 3}),
			TaskArrival(market.Task{ID: 101, Origin: geo.Point{X: 9, Y: 9}, Distance: 2}),
			Tick(1),                   // quote the batch
			AcceptDecision(100, true), // provisional assignment
		)
	}
	suffix := func(e *Engine) Stats {
		mustSubmit(t, e,
			AcceptDecision(101, true),
			Tick(2), // finalize
		)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}

	ref := build()
	prefix(ref)
	want := suffix(ref)

	first := build()
	prefix(first)
	var ck bytes.Buffer
	if err := first.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	_ = first.Close()

	second := build()
	if err := second.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := suffix(second)

	if got.Revenue != want.Revenue || got.Served != want.Served ||
		got.Accepted != want.Accepted || got.Quoted != want.Quoted {
		t.Fatalf("restored quoted run %+v\nwant %+v", got, want)
	}
	if want.Served != 2 {
		t.Fatalf("scenario degenerate: served=%d, want 2", want.Served)
	}
}

// TestCheckpointReshard restores a deterministic checkpoint onto a sharded
// engine: workers and pricing state are re-homed by cell, totals are
// conserved, and the run continues.
func TestCheckpointReshard(t *testing.T) {
	in, model := testInstance(t)
	basep := calibratedBase(t, in, model)
	pb := basep.BasePrice()
	cut := in.Periods / 2

	first, err := New(ckConfig(t, in, 0, pb))
	if err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	_, err = ReplayWith(first, in, ReplayOpts{AfterPeriod: func(p int) error {
		if p == cut-1 {
			if err := first.Checkpoint(&ck); err != nil {
				return err
			}
			return errCheckpointAbort
		}
		return nil
	}})
	if !errors.Is(err, errCheckpointAbort) {
		t.Fatalf("replay did not abort at the checkpoint: %v", err)
	}
	atCut := first.Stats()
	_ = first.Close()

	second, err := New(ckConfig(t, in, 4, pb))
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored := second.Stats()
	if restored.Revenue != atCut.Revenue {
		t.Fatalf("re-sharded restore lost revenue: %v != %v", restored.Revenue, atCut.Revenue)
	}
	if restored.Lifecycle.Pooled != atCut.Lifecycle.Pooled {
		t.Fatalf("re-sharded restore lost workers: pooled %d != %d",
			restored.Lifecycle.Pooled, atCut.Lifecycle.Pooled)
	}
	// No worker may appear in two shards after the re-homing.
	seen := map[int]int{}
	for si, s := range second.shards {
		for _, w := range s.pool {
			if prev, dup := seen[w.ID]; dup {
				t.Fatalf("worker %d restored into shards %d and %d", w.ID, prev, si)
			}
			seen[w.ID] = si
		}
	}
	if _, err := ReplayWith(second, in, ReplayOpts{From: second.RestoredPeriod() + 1}); err != nil {
		t.Fatal(err)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	final := second.Stats()
	if final.Revenue < atCut.Revenue || final.Served <= atCut.Served {
		t.Fatalf("re-sharded run did not progress: %+v (at cut %+v)", final, atCut)
	}
}

// TestCheckpointRestorePartitionerChange pins the fingerprint check: the
// same shard count under a different Partitioner is NOT an exact layout
// match — without pendings the state is re-homed (revenue conserved, no
// ghost pools); with a pending quoted batch the restore is refused rather
// than silently mis-homing workers.
func TestCheckpointRestorePartitionerChange(t *testing.T) {
	grid := geo.SquareGrid(100, 10)
	mkCfg := func(part spatial.Partitioner, auto bool) Config {
		return Config{
			Grid: grid, Shards: 2, Partitioner: part,
			NewStrategy: func(int) core.Strategy { return &fixedPrice{price: 2} },
			AutoDecide:  auto,
			OnDecision:  func(Decision) {},
		}
	}
	balanced := spatial.BalancedPartition(spatial.NewGridSpace(grid), 2)

	// AutoDecide: checkpoint under ModPartition, restore under
	// BalancedPartition — must take the re-homing path.
	e1, err := New(mkCfg(nil, true))
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e1,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 5, Y: 5}, Radius: 10, Duration: 100}),
		WorkerOnline(market.Worker{ID: 2, Loc: geo.Point{X: 15, Y: 5}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 10, Origin: geo.Point{X: 6, Y: 6}, Distance: 2, Valuation: 5}),
		Tick(1),
	)
	var ck bytes.Buffer
	if err := e1.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	atCk := e1.Stats()
	_ = e1.Close()

	e2, err := New(mkCfg(balanced, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	st := e2.Stats()
	if st.Revenue != atCk.Revenue || st.Lifecycle.Pooled != atCk.Lifecycle.Pooled {
		t.Fatalf("re-homed restore lost state: %+v vs %+v", st, atCk)
	}
	// Every restored worker must sit in the shard its cell now routes to.
	for si, s := range e2.shards {
		for _, w := range s.pool {
			if want := balanced.ShardOf(grid.CellOf(w.Loc)); want != si {
				t.Fatalf("worker %d restored into shard %d, new partitioner routes its cell to %d", w.ID, si, want)
			}
		}
	}
	// A task at the re-homed worker's cell must still be servable.
	mustSubmit(t, e2,
		Tick(2),
		TaskArrival(market.Task{ID: 11, Origin: geo.Point{X: 15, Y: 6}, Distance: 2, Valuation: 5}),
		Tick(3),
	)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats(); got.Served != atCk.Served+1 {
		t.Fatalf("re-homed worker unreachable: served %d, want %d", got.Served, atCk.Served+1)
	}

	// Quoted mode with a pending batch: the partitioner change must refuse.
	q1, err := New(mkCfg(nil, false))
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q1,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 5, Y: 5}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 10, Origin: geo.Point{X: 6, Y: 6}, Distance: 2}),
		Tick(1), // quote: batch now pending
	)
	ck.Reset()
	if err := q1.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	_ = q1.Close()
	q2, err := New(mkCfg(balanced, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("pending quoted batch restored across a partitioner change")
	}
	_ = q2.Close()
}

// TestRestoreStateKindMismatch pins the strategy-kind check: a checkpoint
// taken under one UCB-family strategy must refuse to restore into another.
func TestRestoreStateKindMismatch(t *testing.T) {
	m, _ := core.NewMAPS(core.DefaultParams(), 2)
	m.CellStats(0).Seed(2, 10, 5)
	st, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := core.NewCappedUCB(core.DefaultParams(), 2)
	if err := c.RestoreState(st); err == nil {
		t.Fatal("MAPS state restored into CappedUCB")
	}
	c.CellStats(0).Seed(2, 10, 5)
	if st, err = c.SnapshotState(); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(st); err == nil {
		t.Fatal("CappedUCB state restored into MAPS")
	}
}

// TestCheckpointRestoreValidation pins the failure modes: restore into a
// mismatched config, onto a non-fresh engine, or from garbage.
func TestCheckpointRestoreValidation(t *testing.T) {
	mk := func(window int) *Engine {
		e, err := New(Config{Grid: geo.SquareGrid(100, 10), Window: window,
			Strategy: &fixedPrice{price: 2}, AutoDecide: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk(1)
	mustSubmit(t, e, Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 5}))
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if err := mk(2).Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("window mismatch accepted")
	}
	used := mk(1)
	mustSubmit(t, used, Tick(0))
	if err := used.Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("restore onto a used engine accepted")
	}
	if err := mk(1).Restore(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	fresh := mk(1)
	if err := fresh.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats().Lifecycle.Pooled != 1 {
		t.Fatalf("restored pool gauge %d, want 1", fresh.Stats().Lifecycle.Pooled)
	}
}

// badCountStrategy violates the one-price-per-task contract.
type badCountStrategy struct{}

func (badCountStrategy) Name() string { return "bad" }
func (badCountStrategy) Prices(ctx *core.PeriodContext) []float64 {
	return make([]float64, 1+len(ctx.Tasks))
}
func (badCountStrategy) Observe(*core.PeriodContext, []float64, []bool) {}

// TestStrategyErrorSurfacedNotPanic pins the satellite bugfix: a strategy
// returning a malformed price vector must not panic the shard — the batch
// is dropped and a typed *window.PriceCountError surfaces through Stats.
func TestStrategyErrorSurfacedNotPanic(t *testing.T) {
	e, err := New(Config{Grid: geo.SquareGrid(100, 10), Strategy: badCountStrategy{}, AutoDecide: true})
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, e,
		Tick(0),
		WorkerOnline(market.Worker{ID: 1, Loc: geo.Point{X: 10, Y: 10}, Radius: 10, Duration: 100}),
		TaskArrival(market.Task{ID: 7, Origin: geo.Point{X: 11, Y: 11}, Distance: 2, Valuation: 5}),
		Tick(1),
	)
	st := e.Stats()
	if st.StrategyErrors != 1 {
		t.Fatalf("StrategyErrors = %d, want 1", st.StrategyErrors)
	}
	var pce *window.PriceCountError
	if !errors.As(st.LastStrategyError, &pce) {
		t.Fatalf("LastStrategyError = %v, want *window.PriceCountError", st.LastStrategyError)
	}
	if pce.Strategy != "bad" || pce.Got != 2 || pce.Want != 1 {
		t.Fatalf("error detail %+v", *pce)
	}
	if st.TasksPriced != 0 || st.Batches != 0 {
		t.Fatalf("dropped batch still counted: %+v", st)
	}
	// The engine keeps serving subsequent (empty) windows without panicking.
	mustSubmit(t, e, Tick(2), Tick(3))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointByteStability pins checkpoint determinism at the byte
// level: two independent engines fed the same stream must emit identical
// checkpoint bytes. This is what the sorted-key serialization in
// checkpoint.go and the (delta, cell) heap tie-break in core exist for —
// any map-order leak into encoding or pricing shows up here as a diff.
func TestCheckpointByteStability(t *testing.T) {
	for name, in := range churnBackends(t) {
		for _, shards := range []int{0, 4} {
			in := in
			shards := shards
			t.Run(name+modeName(shards), func(t *testing.T) {
				cut := in.Periods / 2
				run := func() []byte {
					e, err := New(ckConfig(t, in, shards, 2))
					if err != nil {
						t.Fatal(err)
					}
					var ck bytes.Buffer
					_, err = ReplayWith(e, in, ReplayOpts{AfterPeriod: func(p int) error {
						if p == cut-1 {
							if err := e.Checkpoint(&ck); err != nil {
								return err
							}
							return errCheckpointAbort
						}
						return nil
					}})
					if !errors.Is(err, errCheckpointAbort) || ck.Len() == 0 {
						t.Fatalf("expected aborted replay with a written checkpoint (err=%v, len=%d)", err, ck.Len())
					}
					_ = e.Close()
					return ck.Bytes()
				}
				a, b := run(), run()
				if !bytes.Equal(a, b) {
					i := 0
					for i < len(a) && i < len(b) && a[i] == b[i] {
						i++
					}
					t.Fatalf("checkpoints differ at byte %d of %d/%d: two runs of the same stream must serialize identically", i, len(a), len(b))
				}
			})
		}
	}
}
