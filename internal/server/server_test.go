package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialcrowd/bench/loadgen"
	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/workload"
)

// flatStrategy prices every task at a fixed unit price: deterministic
// revenue with no calibration, ideal for wire-level equivalence tests.
type flatStrategy struct{ price float64 }

func (f *flatStrategy) Name() string { return "flat" }
func (f *flatStrategy) Prices(ctx *core.PeriodContext) []float64 {
	ps := make([]float64, len(ctx.Tasks))
	for i := range ps {
		ps[i] = f.price
	}
	return ps
}
func (f *flatStrategy) Observe(*core.PeriodContext, []float64, []bool) {}

// gateStrategy blocks its first Prices call until the gate channel closes —
// the lever that saturates a shard for the backpressure test.
type gateStrategy struct {
	flatStrategy
	gate <-chan struct{}
	once sync.Once
}

func (g *gateStrategy) Prices(ctx *core.PeriodContext) []float64 {
	g.once.Do(func() { <-g.gate })
	return g.flatStrategy.Prices(ctx)
}

func testInstance(t *testing.T, requests, workers, periods int) *market.Instance {
	t.Helper()
	in, _, err := workload.Synthetic(workload.SyntheticConfig{
		Workers: workers, Requests: requests, Periods: periods,
		GridSide: 5, Seed: 7,
	})
	if err != nil {
		t.Fatalf("synthetic workload: %v", err)
	}
	return in
}

func flatEngineConfig(in *market.Instance, shards int) engine.Config {
	return engine.Config{
		Grid:        in.Grid,
		Shards:      shards,
		AutoDecide:  true,
		NewStrategy: func(int) core.Strategy { return &flatStrategy{price: 1.5} },
	}
}

// inProcessStats replays the instance through a fresh engine of the given
// config and returns the final statistics.
func inProcessStats(t *testing.T, cfg engine.Config, in *market.Instance, opts engine.ReplayOpts) engine.Stats {
	t.Helper()
	cfg.OnDecision = func(engine.Decision) {}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if _, err := engine.ReplayWith(eng, in, opts); err != nil {
		t.Fatalf("ReplayWith: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return eng.Stats()
}

// postTrace streams the slice opts selects of the instance's canonical
// event order (engine.StreamEvents, the order of the in-process replay) to
// a tenant's ingest endpoint in chunk-event bodies of the named codec,
// through the benchmark's closed-loop load generator: one POST at a time,
// each resumed after a 429 from the server's accepted count.
func postTrace(base, tenant, codec string, in *market.Instance, chunk int, opts engine.ReplayOpts) (*loadgen.Report, error) {
	cd, err := loadgen.CodecByName(codec)
	if err != nil {
		return nil, err
	}
	t := &loadgen.HTTPTarget{Client: &http.Client{}, URL: base + "/v1/" + tenant + "/ingest", Codec: cd}
	var evs []engine.Event
	flush := func() error {
		if len(evs) == 0 {
			return nil
		}
		body, err := cd.Encode(nil, evs)
		t.Bodies, t.Counts, evs = append(t.Bodies, body), append(t.Counts, len(evs)), evs[:0]
		return err
	}
	err = engine.StreamEvents(in, 1, opts, func(ev engine.Event) error {
		if evs = append(evs, ev); len(evs) == chunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return nil, err
	}
	return loadgen.Run(loadgen.Plan{Chunks: len(t.Bodies)}, t)
}

// TestLoopbackRevenueMatchesInProcess is the end-to-end acceptance test:
// the same synthetic trace ingested over real HTTP (load generator,
// chunked NDJSON) must produce exactly the revenue of an in-process replay
// through an identically configured engine — in deterministic mode and in
// sharded mode.
func TestLoopbackRevenueMatchesInProcess(t *testing.T) {
	in := testInstance(t, 4000, 1200, 120)
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"deterministic", 0},
		{"sharded4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := inProcessStats(t, flatEngineConfig(in, tc.shards), in, engine.ReplayOpts{})
			if want.Revenue <= 0 {
				t.Fatalf("reference revenue %v, want > 0 (degenerate workload)", want.Revenue)
			}

			srv, err := server.New(server.Config{Tenants: []server.TenantConfig{{
				Name: "e2e", Engine: flatEngineConfig(in, tc.shards),
			}}})
			if err != nil {
				t.Fatalf("server.New: %v", err)
			}
			hs := httptest.NewServer(srv)
			defer hs.Close()

			rep, err := postTrace(hs.URL, "e2e", "json", in, 700, engine.ReplayOpts{})
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			if err := srv.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}

			tn, _ := srv.Tenant("e2e")
			got := tn.Engine().Stats()
			if got.Revenue != want.Revenue {
				t.Errorf("HTTP revenue %.9f != in-process %.9f", got.Revenue, want.Revenue)
			}
			if got.Served != want.Served || got.Accepted != want.Accepted {
				t.Errorf("served/accepted %d/%d != %d/%d", got.Served, got.Accepted, want.Served, want.Accepted)
			}
			if int64(rep.Accepted) != got.Events {
				t.Errorf("loadgen reported %d accepted events, engine counted %d", rep.Accepted, got.Events)
			}
			if tn.Ingested() != got.Events {
				t.Errorf("tenant ingested %d != engine events %d", tn.Ingested(), got.Events)
			}
		})
	}
}

// TestDrainCheckpointRestore is the SIGTERM seam: ingest half the trace,
// drain (which checkpoints atomically), restore a new tenant from the
// checkpoint file, ingest the remainder, and require the stitched run's
// revenue to equal the uninterrupted run's exactly.
func TestDrainCheckpointRestore(t *testing.T) {
	in := testInstance(t, 3000, 900, 100)
	cut := in.Periods / 2
	want := inProcessStats(t, flatEngineConfig(in, 0), in, engine.ReplayOpts{})

	ckpt := filepath.Join(t.TempDir(), "city.ckpt")
	srv1, err := server.New(server.Config{Tenants: []server.TenantConfig{{
		Name: "city", Engine: flatEngineConfig(in, 0), CheckpointPath: ckpt,
	}}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs1 := httptest.NewServer(srv1)
	defer hs1.Close()
	if _, err := postTrace(hs1.URL, "city", "json", in, 500, engine.ReplayOpts{Until: cut}); err != nil {
		t.Fatalf("loadgen first half: %v", err)
	}
	if err := srv1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drained server refuses work instead of silently dropping it.
	resp, res := postIngest(t, hs1.URL, "city", ndjson(t, engine.Tick(cut)))
	if resp.StatusCode == http.StatusOK && res.Accepted > 0 {
		t.Fatalf("drained server accepted an event: status %d, accepted %d", resp.StatusCode, res.Accepted)
	}
	if hresp, err := http.Get(hs1.URL + "/healthz"); err == nil {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("drained /healthz status %d, want 503", hresp.StatusCode)
		}
	}

	srv2, err := server.New(server.Config{Tenants: []server.TenantConfig{{
		Name: "city", Engine: flatEngineConfig(in, 0), RestoreFrom: ckpt,
	}}})
	if err != nil {
		t.Fatalf("server.New (restore): %v", err)
	}
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()

	tn, _ := srv2.Tenant("city")
	resumeFrom := tn.Engine().RestoredPeriod() + 1
	if resumeFrom != cut {
		t.Fatalf("RestoredPeriod()+1 = %d, want %d", resumeFrom, cut)
	}
	if _, err := postTrace(hs2.URL, "city", "json", in, 500, engine.ReplayOpts{From: resumeFrom}); err != nil {
		t.Fatalf("loadgen second half: %v", err)
	}
	if err := srv2.Drain(); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
	got := tn.Engine().Stats()
	if got.Revenue != want.Revenue {
		t.Errorf("stitched revenue %.9f != uninterrupted %.9f", got.Revenue, want.Revenue)
	}
	if got.Served != want.Served {
		t.Errorf("stitched served %d != uninterrupted %d", got.Served, want.Served)
	}
}

// ndjson renders wire events as an NDJSON body.
func ndjson(t *testing.T, evs ...engine.Event) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, ev := range evs {
		we, err := server.FromEvent(ev)
		if err != nil {
			t.Fatalf("FromEvent: %v", err)
		}
		if err := enc.Encode(we); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return b.String()
}

// ingestAll pushes events until the server has accepted every one,
// resuming after the accepted prefix on each 429 — the client half of the
// lossless backpressure protocol, inlined for tests that bypass loadgen.
func ingestAll(t *testing.T, url, tenant string, evs []engine.Event) {
	t.Helper()
	sent := 0
	deadline := time.Now().Add(10 * time.Second)
	for sent < len(evs) {
		if time.Now().After(deadline) {
			t.Fatalf("ingest did not complete: %d/%d", sent, len(evs))
		}
		resp, res := postIngest(t, url, tenant, ndjson(t, evs[sent:]...))
		sent += res.Accepted
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("ingest: status %d (%s)", resp.StatusCode, res.Error)
		}
	}
}

func postIngest(t *testing.T, url, tenant, body string) (*http.Response, server.IngestResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/"+tenant+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST ingest: %v", err)
	}
	defer resp.Body.Close()
	var res server.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding ingest result (status %d): %v", resp.StatusCode, err)
	}
	return resp, res
}

// TestBackpressure429NoLoss saturates a single-shard engine (its strategy
// blocked mid-batch, tiny channel buffers) and asserts: the server answers
// 429 with Retry-After instead of buffering, queue depths stay within the
// configured bound, and after the shard unblocks a client following the
// accepted-count resume protocol loses no events.
func TestBackpressure429NoLoss(t *testing.T) {
	in := testInstance(t, 200, 40, 2) // geometry donor for valid task coordinates
	gate := make(chan struct{})
	const buffer = 8
	srv, err := server.New(server.Config{
		BusyGrace: -1, // answer 429 immediately once the queue is full
		Tenants: []server.TenantConfig{{
			Name: "jam",
			Engine: engine.Config{
				Grid:        in.Grid,
				Shards:      1,
				Buffer:      buffer,
				AutoDecide:  true, // the gated Prices call happens at window close
				NewStrategy: func(int) core.Strategy { return &gateStrategy{flatStrategy: flatStrategy{price: 1}, gate: gate} },
			},
		}},
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	tasks := in.TasksByPeriod()
	if len(tasks[0]) < 10 {
		t.Fatalf("want >= 10 tasks in period 0, have %d", len(tasks[0]))
	}
	// Phase 1: one window of tasks, then the closing tick — the gated
	// strategy blocks the shard inside that batch close. With an 8-slot
	// buffer even this trickle can outrun the router momentarily, so the
	// head already follows the accepted-count resume protocol.
	head := []engine.Event{engine.Tick(0)}
	for _, task := range tasks[0][:10] {
		head = append(head, engine.TaskArrival(task))
	}
	head = append(head, engine.Tick(1))
	ingestAll(t, hs.URL, "jam", head)

	// Phase 2: push far more events than the bounded queues can hold
	// (router cap + shard cap + in-flight ≈ 2*buffer+2). Fabricated
	// period-1 tasks keep the stream well-formed; the final tick closes
	// their window once the jam clears.
	donor := tasks[0][0]
	var tail []engine.Event
	for i := 0; i < 5*buffer; i++ {
		task := donor
		task.ID = 100000 + i
		task.Period = 1
		tail = append(tail, engine.TaskArrival(task))
	}
	tail = append(tail, engine.Tick(2))
	body := ndjson(t, tail...)
	resp, res := postIngest(t, hs.URL, "jam", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest: status %d (accepted %d of %d), want 429", resp.StatusCode, res.Accepted, len(tail))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if res.RetryAfterMS <= 0 {
		t.Errorf("429 body carries no retry_after_ms hint: %+v", res)
	}
	if res.Accepted >= len(tail) {
		t.Fatalf("server claims to have accepted the whole saturated stream (%d)", res.Accepted)
	}
	tn, _ := srv.Tenant("jam")
	if tn.Rejected() == 0 {
		t.Errorf("rejected counter not bumped")
	}
	qd := tn.Engine().QueueDepths()
	if qd.Capacity != buffer {
		t.Errorf("queue capacity %d, want %d", qd.Capacity, buffer)
	}
	if qd.Router > qd.Capacity || qd.MaxShard > qd.Capacity {
		t.Errorf("queue depth exceeded bound: router %d, maxShard %d, cap %d", qd.Router, qd.MaxShard, qd.Capacity)
	}

	// Phase 3: unblock the shard and resume from the accepted prefix —
	// the lossless-retry protocol the load generator implements.
	close(gate)
	ingestAll(t, hs.URL, "jam", tail[res.Accepted:])
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := tn.Engine().Stats()
	wantEvents := int64(len(head) + len(tail))
	if st.Events != wantEvents {
		t.Errorf("engine saw %d events, want %d (zero loss after retry)", st.Events, wantEvents)
	}
	wantPriced := int64(10 + 5*buffer) // both windows' tasks
	if st.TasksPriced != wantPriced {
		t.Errorf("priced %d tasks, want %d", st.TasksPriced, wantPriced)
	}
}

// TestConcurrentTenants hammers two isolated tenants from parallel load
// generators while scraping /metrics, /stats and /healthz — the
// race-detector coverage for the registry, hub, and admission path. The
// tenants run the same trace through identical engines, so isolation
// means identical outcomes.
func TestConcurrentTenants(t *testing.T) {
	in := testInstance(t, 1500, 500, 60)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "north", Engine: flatEngineConfig(in, 2)},
		{Name: "south", Engine: flatEngineConfig(in, 2)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var ingesters sync.WaitGroup
	errCh := make(chan error, 2)
	for _, tenant := range []string{"north", "south"} {
		ingesters.Add(1)
		go func(tenant string) {
			defer ingesters.Done()
			if _, err := postTrace(hs.URL, tenant, "json", in, 300, engine.ReplayOpts{}); err != nil {
				errCh <- fmt.Errorf("%s: %w", tenant, err)
			}
		}(tenant)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/v1/north/stats", "/healthz"} {
				resp, err := http.Get(hs.URL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	ingesters.Wait()
	close(stop)
	scraper.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	n, _ := srv.Tenant("north")
	s, _ := srv.Tenant("south")
	ns, ss := n.Engine().Stats(), s.Engine().Stats()
	if ns.Revenue <= 0 || ss.Revenue <= 0 {
		t.Errorf("revenue north %.2f south %.2f, want both > 0", ns.Revenue, ss.Revenue)
	}
	if ns.Revenue != ss.Revenue || ns.Served != ss.Served {
		t.Errorf("tenant isolation broken: north %.9f/%d != south %.9f/%d",
			ns.Revenue, ns.Served, ss.Revenue, ss.Served)
	}
}

// TestQuoteDelivery covers quoted (non-AutoDecide) mode over the network:
// the long-poll endpoint returns the quote for a posted task, the decision
// reply flows back in, and the SSE stream carries both the quote frame and
// the final served frame.
func TestQuoteDelivery(t *testing.T) {
	in := testInstance(t, 50, 20, 2)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{{
		Name: "q",
		Engine: engine.Config{
			Grid: in.Grid, Shards: 0, AutoDecide: false,
			NewStrategy: func(int) core.Strategy { return &flatStrategy{price: 2} },
		},
	}}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// SSE subscriber first, so it observes everything published after it.
	sseResp, err := http.Get(hs.URL + "/v1/q/quotes/stream")
	if err != nil {
		t.Fatalf("GET quotes/stream: %v", err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE content type %q", ct)
	}
	frames := make(chan server.WireDecision, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var d server.WireDecision
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d) == nil {
				frames <- d
			}
		}
	}()

	task := in.Tasks[0]
	task.ID = 9001
	task.Period = 0
	worker := in.Workers[0]
	worker.Loc = task.Origin // guarantee an edge
	worker.Radius = 10
	worker.Period = 0
	worker.Duration = 100
	evs := []engine.Event{engine.Tick(0), engine.WorkerOnline(worker), engine.TaskArrival(task), engine.Tick(1)}
	if resp, res := postIngest(t, hs.URL, "q", ndjson(t, evs...)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d (%s)", resp.StatusCode, res.Error)
	}

	// Long-poll the quote.
	qresp, err := http.Get(hs.URL + "/v1/q/quotes/9001?timeout_ms=5000")
	if err != nil {
		t.Fatalf("GET quote: %v", err)
	}
	if qresp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, qresp.Body)
		qresp.Body.Close()
		t.Fatalf("quote status %d, want 200", qresp.StatusCode)
	}
	var quote server.WireDecision
	if err := json.NewDecoder(qresp.Body).Decode(&quote); err != nil {
		t.Fatalf("decoding quote: %v", err)
	}
	qresp.Body.Close()
	if !quote.Quoted || quote.TaskID != 9001 || quote.Price != 2 {
		t.Fatalf("unexpected quote %+v", quote)
	}

	// Accept it; the assignment decision must arrive on the stream.
	accept := ndjson(t, engine.AcceptDecision(9001, true), engine.Tick(2))
	if resp, res := postIngest(t, hs.URL, "q", accept); resp.StatusCode != http.StatusOK {
		t.Fatalf("accept ingest: status %d (%s)", resp.StatusCode, res.Error)
	}

	sawQuote, sawServed := false, false
	deadline := time.After(10 * time.Second)
	for !(sawQuote && sawServed) {
		select {
		case d, ok := <-frames:
			if !ok {
				t.Fatalf("SSE stream closed early (quote %v, served %v)", sawQuote, sawServed)
			}
			if d.TaskID == 9001 && d.Quoted && !d.Served {
				sawQuote = true
			}
			if d.TaskID == 9001 && d.Served {
				sawServed = true
			}
		case <-deadline:
			t.Fatalf("timed out waiting for SSE frames (quote %v, served %v)", sawQuote, sawServed)
		}
	}

	// A quote for an unknown task times out with 204.
	nresp, err := http.Get(hs.URL + "/v1/q/quotes/777777?timeout_ms=50")
	if err != nil {
		t.Fatalf("GET unknown quote: %v", err)
	}
	io.Copy(io.Discard, nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNoContent {
		t.Errorf("unknown-task long-poll status %d, want 204", nresp.StatusCode)
	}

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStatsEndpoint checks /stats rides the stable engine.Stats JSON
// encoding and round-trips through UnmarshalJSON.
func TestStatsEndpoint(t *testing.T) {
	in := testInstance(t, 500, 200, 30)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{{
		Name: "s", Engine: flatEngineConfig(in, 0),
	}}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if _, err := postTrace(hs.URL, "s", "json", in, 400, engine.ReplayOpts{}); err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	resp, err := http.Get(hs.URL + "/v1/s/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st engine.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats did not round-trip through engine.Stats: %v\n%s", err, raw)
	}
	if st.Revenue <= 0 || st.Events == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"revenue", "events", "tasks_priced", "p50_latency_ns", "p99_latency", "lifecycle", "shard_revenue"} {
		if _, ok := loose[key]; !ok {
			t.Errorf("stats JSON missing key %q", key)
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestWireRoundTrip pins the JSON codec: every public event kind survives
// FromEvent -> JSON -> Event unchanged, and malformed payloads are
// rejected rather than decoded as zero values.
func TestWireRoundTrip(t *testing.T) {
	in := testInstance(t, 10, 5, 2)
	events := []engine.Event{
		engine.TaskArrival(in.Tasks[0]),
		engine.WorkerOnline(in.Workers[0]),
		engine.WorkerOffline(42),
		engine.WorkerMove(7, in.Tasks[1].Origin),
		engine.AcceptDecision(13, true),
		engine.Tick(5),
	}
	for _, ev := range events {
		we, err := server.FromEvent(ev)
		if err != nil {
			t.Fatalf("FromEvent(%v): %v", ev.Kind, err)
		}
		raw, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		var back server.WireEvent
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Event()
		if err != nil {
			t.Fatalf("Event() for %s: %v", raw, err)
		}
		if got.Kind != ev.Kind || got.Task != ev.Task || got.Worker != ev.Worker ||
			got.WorkerID != ev.WorkerID || got.Loc != ev.Loc ||
			got.TaskID != ev.TaskID || got.Accept != ev.Accept || got.Period != ev.Period {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", ev, got)
		}
	}
	for _, bad := range []string{
		`{"type":"task"}`,
		`{"type":"worker_online"}`,
		`{"type":"worker_move","worker_id":1}`,
		`{"type":"nonsense"}`,
		`{"type":"worker_online","worker":{"id":1,"loc":{"x":0,"y":0},"radius":0}}`,
		`{"type":"task","task":{"id":1,"period":0,"origin":{"x":0,"y":0},"distance":-2}}`,
	} {
		var we server.WireEvent
		if err := json.Unmarshal([]byte(bad), &we); err != nil {
			t.Fatalf("unmarshal %s: %v", bad, err)
		}
		if _, err := we.Event(); err == nil {
			t.Errorf("Event() accepted malformed %s", bad)
		}
	}
}
