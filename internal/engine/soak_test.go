package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/spatial"
)

// The randomized soak harness: a seeded generator drives tens of thousands
// of interleaved arrivals / onlines / moves / duplicate onlines / offlines
// / decisions / ticks through the engine in quoted mode — deterministic and
// sharded — and asserts the lifecycle invariants:
//
//   - no worker is pooled in two shards (no ghost supply)
//   - the funnel holds: served <= accepted <= quoted <= priced... (quoted
//     mode: served <= accepted <= quoted, priced == quoted)
//   - shard revenues sum to the total, and the committed decision stream
//     carries exactly the finalized revenue
//   - the router's maps stay bounded by the live population / recent quotes
//
// Environment knobs (CI pins them for reproduction):
//
//	SOAK_SEED          generator seed (default 1)
//	SOAK_EVENTS        approximate event budget (default 60000; -short 15000)
//	SOAK_ARTIFACT_DIR  when set, a failing run writes soak-failure-seed.txt
//	                   there so CI can upload it as an artifact

func soakSeed() int64 {
	if s := os.Getenv("SOAK_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

func soakEvents(t *testing.T) int {
	if s := os.Getenv("SOAK_EVENTS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	if testing.Short() {
		return 15_000
	}
	return 60_000
}

// reportFailureSeed persists the failing seed for artifact upload.
func reportFailureSeed(t *testing.T, seed int64, events int) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("SOAK_ARTIFACT_DIR")
		if dir == "" {
			return
		}
		_ = os.MkdirAll(dir, 0o755)
		body := fmt.Sprintf("test=%s\nSOAK_SEED=%d\nSOAK_EVENTS=%d\n", t.Name(), seed, events)
		path := filepath.Join(dir, "soak-failure-seed.txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Logf("could not write failure seed artifact: %v", err)
		} else {
			t.Logf("failure seed written to %s", path)
		}
	})
}

func TestSoakRandomizedLifecycle(t *testing.T) {
	seed, budget := soakSeed(), soakEvents(t)
	for _, shards := range []int{0, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			reportFailureSeed(t, seed, budget)
			runSoak(t, seed, budget, shards, false, false)
		})
	}
}

// TestSoakAmortizedLifecycle is the same randomized soak with the
// amortized-rebuild layer on: every lifecycle/revenue invariant must hold
// unchanged (the cache is transparent), and additionally the cache counters
// must cohere — every priced window scores exactly one context and one price
// outcome, so hits+misses reconcile against the batch count.
func TestSoakAmortizedLifecycle(t *testing.T) {
	seed, budget := soakSeed(), soakEvents(t)
	for _, shards := range []int{0, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			reportFailureSeed(t, seed, budget)
			runSoak(t, seed, budget, shards, false, true)
		})
	}
}

// TestSoakCheckpointRestore is the same randomized soak with a mid-stream
// checkpoint/restore: halfway through the budget the engine is
// checkpointed (pending quoted batches included), discarded, and replaced
// by a fresh engine restored from the checkpoint, which then serves the
// rest of the stream. Extra invariant at the seam: no worker is lost or
// duplicated across the restore. Every end-of-run invariant then holds on
// the restored engine.
func TestSoakCheckpointRestore(t *testing.T) {
	seed, budget := soakSeed(), soakEvents(t)
	for _, shards := range []int{0, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			reportFailureSeed(t, seed, budget)
			runSoak(t, seed, budget, shards, true, false)
		})
	}
}

// livePools returns each shard's live pool entries in pool order, after
// checking the pool discipline on every shard. Safe only while no shard
// goroutine can run: an inline engine, or after a Checkpoint/Restore
// round-trip or Close ordered the memory.
func livePools(t *testing.T, e *Engine, when string) [][]market.Worker {
	t.Helper()
	pools := make([][]market.Worker, len(e.shards))
	for si, s := range e.shards {
		checkPoolDiscipline(t, s, when)
		for i, w := range s.pool {
			if !s.poolDead[i] {
				pools[si] = append(pools[si], w)
			}
		}
	}
	return pools
}

// checkPoolDiscipline asserts the shard's pool invariant: arrival sequences
// strictly ascending over every entry (tombstones included) and below
// nextSeq, and for every live entry ID -> sequence -> position leading back
// to it, with the ID index holding nothing else.
func checkPoolDiscipline(t *testing.T, s *shard, when string) {
	t.Helper()
	dead := 0
	for i := range s.pool {
		if i > 0 && s.poolSeq[i] <= s.poolSeq[i-1] {
			t.Fatalf("%s: shard %d pool seq not ascending at %d: %d after %d", when, s.id, i, s.poolSeq[i], s.poolSeq[i-1])
		}
		if s.poolDead[i] {
			dead++
			continue
		}
		id := s.pool[i].ID
		if seq, ok := s.poolID[id]; !ok || seq != s.poolSeq[i] {
			t.Fatalf("%s: shard %d worker %d at %d has seq %d, index says %d (present %v)", when, s.id, id, i, s.poolSeq[i], seq, ok)
		}
		if j, ok := s.poolFind(id); !ok || j != i {
			t.Fatalf("%s: shard %d worker %d sits at %d, found at %d (present %v)", when, s.id, id, i, j, ok)
		}
	}
	if n := len(s.pool); n > 0 && s.nextSeq <= s.poolSeq[n-1] {
		t.Fatalf("%s: shard %d nextSeq %d not above last seq %d", when, s.id, s.nextSeq, s.poolSeq[n-1])
	}
	if len(s.poolID) != len(s.pool)-dead || len(s.poolSeq) != len(s.pool) || len(s.poolDead) != len(s.pool) {
		t.Fatalf("%s: shard %d pool bookkeeping: %d entries, %d seqs, %d marks, %d tombstones, %d indexed",
			when, s.id, len(s.pool), len(s.poolSeq), len(s.poolDead), dead, len(s.poolID))
	}
}

// pooledIDs collects the IDs pooled across an idle engine's shards,
// failing on duplicates.
func pooledIDs(t *testing.T, e *Engine, when string) map[int]bool {
	t.Helper()
	ids := map[int]bool{}
	for _, pool := range livePools(t, e, when) {
		for _, w := range pool {
			if ids[w.ID] {
				t.Fatalf("%s: worker %d pooled twice", when, w.ID)
			}
			ids[w.ID] = true
		}
	}
	return ids
}

// soakConfig is the soak harness's engine: 64 cells priced by SDR, split
// under a balanced partition when sharded. Quoted mode unless auto is set.
func soakConfig(shards int, auto, amortize bool) Config {
	grid := geo.SquareGrid(100, 8) // 64 cells
	cfg := Config{Grid: grid, Shards: shards, AutoDecide: auto, Amortize: amortize}
	if shards > 0 {
		cfg.Partitioner = spatial.BalancedPartition(spatial.NewGridSpace(grid), shards)
		cfg.NewStrategy = func(int) core.Strategy {
			s, _ := core.NewSDR(core.DefaultParams(), 2)
			return s
		}
	} else {
		s, _ := core.NewSDR(core.DefaultParams(), 2)
		cfg.Strategy = s
	}
	return cfg
}

// soakStream is the soak harness's seeded generator: about budget events of
// interleaved ticks, replies, onlines, duplicate onlines, moves, arrivals
// and offlines over soakConfig's region, closed by two ticks that settle the
// last quoted batch. It never reads an engine's output, so one stream can
// drive any number of engines. It also reports the most tasks one period
// carries and every worker ID it onlines.
func soakStream(seed int64, budget int) (evs []Event, maxPerTick int, everOnline map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	randPoint := func() geo.Point {
		return geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}

	type liveWorker struct {
		id    int
		until int // first period the worker is expired
	}
	var (
		online     []liveWorker // workers the harness believes are online (may include consumed)
		openQuotes []int
		nextWorker = 1
		nextTask   = 1
	)
	everOnline = map[int]bool{}
	sub := func(ev Event) { evs = append(evs, ev) }

	// Event mix per period; tuned so ~budget events span a few thousand
	// periods with constant churn.
	period := 0
	for len(evs) < budget {
		sub(Tick(period))

		// Answer ~70% of the previous window's quotes (random accepts).
		for _, id := range openQuotes {
			if rng.Float64() < 0.7 {
				sub(AcceptDecision(id, rng.Float64() < 0.6))
			}
		}
		openQuotes = openQuotes[:0]

		// Forget workers whose availability lapsed, so most mobility events
		// target genuinely live workers (consumed ones still slip through
		// and must be absorbed as late).
		live := online[:0]
		for _, w := range online {
			if w.until > period {
				live = append(live, w)
			}
		}
		online = live

		tasksThisTick := 0
		// Fresh onlines.
		for i := rng.Intn(4); i > 0; i-- {
			id := nextWorker
			nextWorker++
			everOnline[id] = true
			dur := 2 + rng.Intn(12)
			online = append(online, liveWorker{id: id, until: period + dur})
			sub(WorkerOnline(market.Worker{
				ID: id, Period: period, Loc: randPoint(),
				Radius: 5 + rng.Float64()*10, Duration: dur,
			}))
		}
		// Duplicate onlines: an already-known worker re-onlines from a new
		// random location (often a different shard) — the ghost hazard.
		if len(online) > 0 && rng.Float64() < 0.25 {
			i := rng.Intn(len(online))
			dur := 2 + rng.Intn(12)
			online[i].until = period + dur
			sub(WorkerOnline(market.Worker{
				ID: online[i].id, Period: period, Loc: randPoint(),
				Radius: 5 + rng.Float64()*10, Duration: dur,
			}))
		}
		// Moves: known workers teleport to random points, which usually
		// crosses cells and often crosses shards (migration handshake);
		// moves landing on consumed workers must be absorbed as late.
		for i := rng.Intn(3); i > 0; i-- {
			if len(online) == 0 {
				break
			}
			sub(WorkerMove(online[rng.Intn(len(online))].id, randPoint()))
		}
		// Unknown-worker noise.
		if rng.Float64() < 0.05 {
			sub(WorkerMove(-7, randPoint()))
		}
		// Task arrivals (their quotes are answerable next period; an
		// auto-deciding engine reads the valuation instead, drawn without
		// the rng so both modes see one stream).
		for i := rng.Intn(5); i > 0; i-- {
			id := nextTask
			nextTask++
			tasksThisTick++
			sub(TaskArrival(market.Task{
				ID: id, Period: period, Origin: randPoint(),
				Distance: 0.5 + rng.Float64()*4, Valuation: float64(1 + id%4),
			}))
			openQuotes = append(openQuotes, id)
		}
		// Offlines.
		if len(online) > 0 && rng.Float64() < 0.2 {
			i := rng.Intn(len(online))
			sub(WorkerOffline(online[i].id))
			online = append(online[:i], online[i+1:]...)
		}
		if tasksThisTick > maxPerTick {
			maxPerTick = tasksThisTick
		}
		period++
	}
	sub(Tick(period))
	sub(Tick(period + 1))
	return evs, maxPerTick, everOnline
}

func runSoak(t *testing.T, seed int64, budget, shards int, restoreMid, amortize bool) {
	t.Helper()
	cfg := soakConfig(shards, false, amortize)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, maxPerTick, everOnline := soakStream(seed, budget)
	last := map[int]Decision{} // committed (non-quoted) pairing per task
	drain := func() {
		for _, d := range e.Poll() {
			if !d.Quoted {
				last[d.TaskID] = d
			}
		}
	}

	restored := false
	for i, ev := range evs {
		if ev.Kind == KindTick {
			drain()
			// Mid-run coherence probes (cheap, snapshot-safe).
			if p := ev.Period; p > 0 && p%512 == 0 {
				st := e.Stats()
				if st.Served > st.Accepted || st.Accepted > st.Quoted {
					t.Fatalf("period %d: funnel violated: %+v", p, st)
				}
				if st.Lifecycle.Pooled < 0 {
					t.Fatalf("period %d: negative pool gauge: %+v", p, st.Lifecycle)
				}
			}
		}
		// Mid-stream crash/recovery: checkpoint (quoted batches pending),
		// discard the engine, restore into a fresh one, keep streaming.
		if restoreMid && !restored && ev.Kind == KindTick && i >= budget/2 {
			restored = true
			var ck bytes.Buffer
			if err := e.Checkpoint(&ck); err != nil {
				t.Fatalf("mid-stream checkpoint: %v", err)
			}
			// The checkpoint barrier guarantees every pre-checkpoint decision
			// has been emitted; collect them before discarding the engine
			// (Close would re-finalize state the restored engine still owns).
			drain()
			before := pooledIDs(t, e, "pre-restore")
			_ = e.Close()
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(bytes.NewReader(ck.Bytes())); err != nil {
				t.Fatalf("mid-stream restore: %v", err)
			}
			after := pooledIDs(t, fresh, "post-restore")
			if len(after) != len(before) {
				t.Fatalf("restore changed the pool: %d workers before, %d after", len(before), len(after))
			}
			for id := range before {
				if !after[id] {
					t.Fatalf("worker %d lost across restore", id)
				}
			}
			e = fresh
		}
		if err := e.Submit(ev); err != nil {
			t.Fatalf("event %d: %v", i+1, err)
		}
		// An inline engine applies the event before Submit returns, so the
		// pool can be inspected after every single one; goroutine-driven
		// runs are inspected at the checkpoint seam and after Close.
		if e.in == nil {
			checkPoolDiscipline(t, e.shards[0], "after event "+strconv.Itoa(i+1))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drain()

	st := e.Stats()
	t.Logf("soak shards=%d seed=%d: %d events, %d periods, %d quoted, %d served, revenue %.1f, late %d, lifecycle %+v",
		shards, seed, len(evs), evs[len(evs)-1].Period, st.Quoted, st.Served, st.Revenue, st.Late, st.Lifecycle)

	// Invariant: the funnel.
	if st.TasksPriced == 0 || st.Quoted == 0 || st.Served == 0 {
		t.Fatalf("degenerate run (nothing flowed): %+v", st)
	}
	if st.Served > st.Accepted || st.Accepted > st.Quoted || st.Quoted != st.TasksPriced {
		t.Fatalf("funnel violated: %+v", st)
	}

	// Invariant: revenue conservation across shards.
	sum := 0.0
	for _, r := range st.ShardRevenue {
		sum += r
	}
	if math.Abs(sum-st.Revenue) > 1e-6*(1+st.Revenue) {
		t.Fatalf("shard revenues sum to %v, total %v", sum, st.Revenue)
	}

	// Invariant: no worker pooled in two shards, and every pooled worker is
	// one the harness actually onlined. Safe to inspect after Close (shard
	// goroutines have exited).
	seen := map[int]int{}
	pooled := 0
	for si, pool := range livePools(t, e, "after close") {
		for _, w := range pool {
			pooled++
			if prev, dup := seen[w.ID]; dup {
				t.Fatalf("worker %d pooled in shards %d and %d (ghost supply)", w.ID, prev, si)
			}
			seen[w.ID] = si
			if !everOnline[w.ID] {
				t.Fatalf("pool holds worker %d the harness never onlined", w.ID)
			}
		}
	}
	if int64(pooled) != st.Lifecycle.Pooled {
		t.Fatalf("pool gauge %d != actual pooled %d", st.Lifecycle.Pooled, pooled)
	}

	// Invariant: router maps bounded. The lifecycle table tracks at most
	// the workers that ever onlined and never more than onlines minus
	// permanent retirements it has heard about; the quoted-task maps hold
	// at most the last two generations of quotes.
	if n := e.workers.size(); n > len(everOnline) {
		t.Fatalf("worker table tracks %d workers, only %d ever onlined", n, len(everOnline))
	}
	if lc := st.Lifecycle; lc.TrackedHeld < 0 || lc.TrackedHeld > lc.Tracked {
		t.Fatalf("held gauge out of range: held=%d tracked=%d", lc.TrackedHeld, lc.Tracked)
	}
	taskEntries := len(e.taskShardCur) + len(e.taskShardPrev)
	if bound := 4 * (maxPerTick + 1) * e.Window(); taskEntries > bound {
		t.Fatalf("task routing maps hold %d entries, bound %d (leak?)", taskEntries, bound)
	}

	// Invariant: the committed decision stream carries the finalized
	// matching (deterministic mode: Poll saw every decision in order).
	var served int64
	decRevenue := 0.0
	for _, d := range last {
		if d.Served {
			served++
			decRevenue += d.Revenue
		}
	}
	if served != st.Served {
		t.Fatalf("decision stream commits %d served, stats say %d", served, st.Served)
	}
	if math.Abs(decRevenue-st.Revenue) > 1e-6*(1+st.Revenue) {
		t.Fatalf("decision stream revenue %v, stats revenue %v", decRevenue, st.Revenue)
	}

	// Lifecycle ledger: pool admissions (fresh onlines; migration admits
	// cancel against migration removals) equal current pool plus reasoned
	// retirements plus stale-copy evictions, and the latter cannot exceed
	// the duplicate onlines that caused them:
	//   pooled + retired <= onlines <= pooled + retired + duplicates
	lc := st.Lifecycle
	retired := lc.RetiredAssigned + lc.RetiredExpired + lc.RetiredOffline
	if lc.Onlines < lc.Pooled+retired || lc.Onlines > lc.Pooled+retired+lc.DuplicateOnlines {
		t.Fatalf("lifecycle ledger broken: onlines=%d pooled=%d retired=%d dup=%d mig=%d",
			lc.Onlines, lc.Pooled, retired, lc.DuplicateOnlines, lc.Migrations)
	}

	// Cache-counter coherence. Off: the counters never move. On (without a
	// mid-stream restore, which legitimately swallows re-arm rebuilds): every
	// priced window scores exactly one context and one price outcome, the
	// per-shard breakdown sums to the total, and no counter is negative.
	if !amortize {
		if st.Cache != (CacheStats{}) {
			t.Fatalf("amortize off but cache counters moved: %+v", st.Cache)
		}
		return
	}
	c := st.Cache
	if c.CtxHits < 0 || c.CtxMisses < 0 || c.PriceHits < 0 || c.PriceMisses < 0 ||
		c.KDIncremental < 0 || c.KDRebuilds < 0 {
		t.Fatalf("negative cache counter: %+v", c)
	}
	var fromShards CacheStats
	for _, sc := range st.ShardCache {
		fromShards = fromShards.Add(sc)
	}
	if fromShards != c {
		t.Fatalf("shard cache counters sum to %+v, total %+v", fromShards, c)
	}
	if !restoreMid {
		windows := st.Batches + st.StrategyErrors
		if got := c.CtxHits + c.CtxMisses; got != windows {
			t.Fatalf("ctx outcomes %d != priced windows %d (cache %+v)", got, windows, c)
		}
		if got := c.PriceHits + c.PriceMisses; got != windows {
			t.Fatalf("price outcomes %d != priced windows %d (cache %+v)", got, windows, c)
		}
	}
}

// TestRestorePermutedPoolCheckpoint feeds Restore a version-1 checkpoint in
// the shape engines wrote while the pool was an unordered set: Workers and
// Seqs in storage order, permuted by swap-deletes. The restored engine must
// put the pool back into arrival order and finish the stream on exactly the
// uninterrupted run's revenue, funnel and lifecycle ledger.
func TestRestorePermutedPoolCheckpoint(t *testing.T) {
	in := churnBackends(t)["grid"]
	for _, shards := range []int{0, 4} {
		t.Run(modeName(shards), func(t *testing.T) {
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

			cut := in.Periods / 2
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
					return errCheckpointAbort
				}
				return nil
			}})
			if !errors.Is(err, errCheckpointAbort) {
				t.Fatalf("expected aborted replay, got %v", err)
			}
			_ = first.Close()

			var f checkpointFile
			if err := json.Unmarshal(ck.Bytes(), &f); err != nil {
				t.Fatal(err)
			}
			if f.Version != 1 {
				t.Fatalf("checkpoint version %d, the format must stay 1", f.Version)
			}
			permuted := 0
			for i := range f.ShardStates {
				st := &f.ShardStates[i]
				if !slices.IsSorted(st.Seqs) {
					t.Fatalf("shard %d checkpointed its pool out of arrival order: %v", i, st.Seqs)
				}
				// Reverse, then swap the ends back: not sorted, not reverse
				// sorted either.
				slices.Reverse(st.Workers)
				slices.Reverse(st.Seqs)
				if n := len(st.Seqs); n > 2 {
					st.Workers[0], st.Workers[n-1] = st.Workers[n-1], st.Workers[0]
					st.Seqs[0], st.Seqs[n-1] = st.Seqs[n-1], st.Seqs[0]
					permuted++
				}
			}
			if permuted == 0 {
				t.Fatal("no shard pooled enough workers at the cut to permute")
			}
			raw, err := json.Marshal(&f)
			if err != nil {
				t.Fatal(err)
			}

			second, err := New(ckConfig(t, in, shards, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := second.Restore(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			livePools(t, second, "after permuted restore")
			if _, err := ReplayWith(second, in, ReplayOpts{From: second.RestoredPeriod() + 1}); err != nil {
				t.Fatal(err)
			}
			if err := second.Close(); err != nil {
				t.Fatal(err)
			}
			got := second.Stats()
			if got.Revenue != want.Revenue || got.Served != want.Served || got.Accepted != want.Accepted ||
				got.TasksPriced != want.TasksPriced || got.Batches != want.Batches || ledgerOf(got) != ledgerOf(want) {
				t.Fatalf("permuted-pool restore diverged:\nrestored      rev %v funnel %d/%d/%d/%d ledger %v\nuninterrupted rev %v funnel %d/%d/%d/%d ledger %v",
					got.Revenue, got.TasksPriced, got.Accepted, got.Served, got.Batches, ledgerOf(got),
					want.Revenue, want.TasksPriced, want.Accepted, want.Served, want.Batches, ledgerOf(want))
			}
		})
	}
}
