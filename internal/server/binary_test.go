package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/server/loadgen"
	"spatialcrowd/internal/wire"
	"spatialcrowd/internal/workload"
)

// streamEvents flattens the instance's canonical replay stream.
func streamEvents(t testing.TB, in *market.Instance, opts engine.ReplayOpts) []engine.Event {
	t.Helper()
	var evs []engine.Event
	if err := engine.StreamEvents(in, 1, opts, func(ev engine.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// binaryBody encodes evs as a stream of batch frames, perFrame events each.
func binaryBody(t testing.TB, evs []engine.Event, perFrame int) []byte {
	t.Helper()
	var body []byte
	for off := 0; off < len(evs); off += perFrame {
		end := off + perFrame
		if end > len(evs) {
			end = len(evs)
		}
		wevs := make([]wire.Event, 0, end-off)
		for _, ev := range evs[off:end] {
			wevs = append(wevs, ev.Wire())
		}
		var err error
		if body, err = wire.AppendBatchFrame(body, wevs); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

func postBinary(t testing.TB, url, tenant string, body []byte) (*http.Response, server.IngestResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/"+tenant+"/ingest", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST binary ingest: %v", err)
	}
	defer resp.Body.Close()
	var res server.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding ingest result (status %d): %v", resp.StatusCode, err)
	}
	return resp, res
}

// ingestAllBinary pushes the events as binary frames until all are accepted,
// re-framing from the accepted event offset on each 429 — the binary half of
// the lossless resume protocol.
func ingestAllBinary(t *testing.T, url, tenant string, evs []engine.Event, perFrame int) {
	t.Helper()
	sent := 0
	deadline := time.Now().Add(10 * time.Second)
	for sent < len(evs) {
		if time.Now().After(deadline) {
			t.Fatalf("binary ingest did not complete: %d/%d", sent, len(evs))
		}
		resp, res := postBinary(t, url, tenant, binaryBody(t, evs[sent:], perFrame))
		sent += res.Accepted
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("binary ingest: status %d (%s)", resp.StatusCode, res.Error)
		}
	}
}

// TestBinaryIngestRevenueMatchesJSON is the codec-equivalence acceptance
// test: the same trace ingested as binary frames and as NDJSON into two
// identically configured tenants produces exactly the revenue of an
// in-process replay — deterministic and sharded.
func TestBinaryIngestRevenueMatchesJSON(t *testing.T) {
	in := testInstance(t, 4000, 1200, 120)
	evs := streamEvents(t, in, engine.ReplayOpts{})
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"deterministic", 0},
		{"sharded4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := inProcessStats(t, flatEngineConfig(in, tc.shards), in, engine.ReplayOpts{})
			srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
				{Name: "json", Engine: flatEngineConfig(in, tc.shards), Codec: "json"},
				{Name: "bin", Engine: flatEngineConfig(in, tc.shards), Codec: "binary"},
			}})
			if err != nil {
				t.Fatalf("server.New: %v", err)
			}
			hs := httptest.NewServer(srv)
			defer hs.Close()

			ingestAll(t, hs.URL, "json", evs)
			ingestAllBinary(t, hs.URL, "bin", evs, 512)
			if err := srv.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			for _, name := range []string{"json", "bin"} {
				tn, _ := srv.Tenant(name)
				got := tn.Engine().Stats()
				if got.Revenue != want.Revenue || got.Served != want.Served || got.Events != want.Events {
					t.Errorf("tenant %s diverged from in-process: rev %v/%v served %d/%d events %d/%d",
						name, got.Revenue, want.Revenue, got.Served, want.Served, got.Events, want.Events)
				}
			}
		})
	}
}

// TestLoadgenBinaryCodec drives the load generator in binary mode through a
// deliberately tiny engine buffer with busy grace disabled, so chunks are
// routinely part-accepted and the generator's byte-offset re-framing resume
// is exercised for real — and the revenue must still match the in-process
// replay exactly, with zero loss and zero duplication.
func TestLoadgenBinaryCodec(t *testing.T) {
	in := testInstance(t, 3000, 900, 100)
	cfg := flatEngineConfig(in, 4)
	cfg.Buffer = 16
	want := inProcessStats(t, cfg, in, engine.ReplayOpts{})

	// Hundreds of chunks are refused here by design; the default 50 ms
	// backoff per refusal would make this the slowest test in the suite.
	srv, err := server.New(server.Config{
		BusyGrace:  -1,
		RetryAfter: time.Millisecond,
		Tenants:    []server.TenantConfig{{Name: "lg", Engine: cfg, Codec: "binary"}},
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL: hs.URL, Tenant: "lg", Codec: "binary", ChunkEvents: 250,
	}, in)
	if err != nil {
		t.Fatalf("loadgen binary: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tn, _ := srv.Tenant("lg")
	got := tn.Engine().Stats()
	if got.Revenue != want.Revenue || got.Served != want.Served {
		t.Errorf("binary loadgen revenue %.9f/served %d != in-process %.9f/%d",
			got.Revenue, got.Served, want.Revenue, want.Served)
	}
	if int64(rep.Events) != got.Events {
		t.Errorf("loadgen reported %d accepted events, engine counted %d", rep.Events, got.Events)
	}
	if rep.Rejections == 0 {
		t.Logf("note: no 429s occurred (buffer kept up); resume path not stressed this run")
	}

	if _, err := loadgen.Run(loadgen.Config{BaseURL: hs.URL, Tenant: "lg", Codec: "morse"}, in); err == nil {
		t.Error("unknown codec accepted by loadgen")
	}
}

// TestUnsupportedMediaType pins the 415 taxonomy: unknown Content-Type on
// /events and /ingest, binary frames on the single-event endpoint, and a
// codec-restricted tenant refusing the other codec.
func TestUnsupportedMediaType(t *testing.T) {
	in := testInstance(t, 50, 20, 2)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "any", Engine: flatEngineConfig(in, 0)},
		{Name: "jsononly", Engine: flatEngineConfig(in, 0), Codec: "json"},
		{Name: "binonly", Engine: flatEngineConfig(in, 0), Codec: "binary"},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Drain()

	tick := ndjson(t, engine.Tick(0))
	frame := binaryBody(t, []engine.Event{engine.Tick(0)}, 16)

	post := func(path, tenant, ct string, body []byte) int {
		resp, err := http.Post(hs.URL+"/v1/"+tenant+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		name, path, tenant, ct string
		body                   []byte
		want                   int
	}{
		{"events-unknown-ct", "/events", "any", "text/csv", []byte(tick), http.StatusUnsupportedMediaType},
		{"ingest-unknown-ct", "/ingest", "any", "application/octet-stream", []byte(tick), http.StatusUnsupportedMediaType},
		{"events-binary-frame", "/events", "any", wire.ContentType, frame, http.StatusUnsupportedMediaType},
		{"json-tenant-refuses-binary", "/ingest", "jsononly", wire.ContentType, frame, http.StatusUnsupportedMediaType},
		{"binary-tenant-refuses-json", "/ingest", "binonly", "application/x-ndjson", []byte(tick), http.StatusUnsupportedMediaType},
		{"events-json-ok", "/events", "any", "application/json", []byte(tick), http.StatusAccepted},
		{"ingest-ndjson-ok", "/ingest", "any", "application/x-ndjson", []byte(tick), http.StatusOK},
		{"ingest-binary-ok", "/ingest", "any", wire.ContentType, frame, http.StatusOK},
	} {
		if got := post(tc.path, tc.tenant, tc.ct, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestBinaryIngestRejectsCorruption: a flipped payload byte or a truncated
// stream is an explicit 400 rejection with an exact accepted count — never
// a silent drop, never a panic.
func TestBinaryIngestRejectsCorruption(t *testing.T) {
	in := testInstance(t, 50, 20, 2)
	evs := streamEvents(t, in, engine.ReplayOpts{})
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "c", Engine: flatEngineConfig(in, 0)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Drain()

	good := binaryBody(t, evs, 32)
	flipped := append([]byte(nil), good...)
	flipped[wire.HeaderLen+3] ^= 0x20 // inside the first frame's payload
	resp, res := postBinary(t, hs.URL, "c", flipped)
	if resp.StatusCode != http.StatusBadRequest || res.Accepted != 0 {
		t.Errorf("corrupt first frame: status %d accepted %d (%s), want 400 with 0 accepted",
			resp.StatusCode, res.Accepted, res.Error)
	}
	if res.Error == "" {
		t.Error("corrupt frame rejected without an error message")
	}

	truncated := good[:len(good)-5]
	resp, res = postBinary(t, hs.URL, "c", truncated)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated stream: status %d, want 400", resp.StatusCode)
	}
	if res.Accepted == 0 && len(good) > wire.HeaderLen {
		t.Errorf("truncation at the tail should still accept the complete leading frames (accepted %d)", res.Accepted)
	}
}

// BenchmarkIngestLoopback measures end-to-end loopback ingest throughput
// per codec against a deterministic flat-strategy tenant: one POST of the
// full pre-encoded trace per iteration, a fresh tenant each time so state
// never accumulates. The stream is worker-heavy (a fleet onboarding feed:
// lifecycle events outnumber task arrivals 10:1), so the per-event engine
// work both codecs share stays small and the measurement lands on the wire
// path — codec, HTTP, and admission — which is what the two subbenchmarks
// differ in (compare the ns/op of the two subbenchmarks — both ingest the
// same event count). A development aid, not a gate: the gated end-to-end
// numbers per codec come from `go run ./bench` (BENCHMARK.json).
func BenchmarkIngestLoopback(b *testing.B) {
	in, _, err := workload.Synthetic(workload.SyntheticConfig{
		Workers: 20000, Requests: 2000, Periods: 100, GridSide: 5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	evs := streamEvents(b, in, engine.ReplayOpts{})

	var ndjsonBody []byte
	{
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ev := range evs {
			we, err := server.FromEvent(ev)
			if err != nil {
				b.Fatal(err)
			}
			if err := enc.Encode(we); err != nil {
				b.Fatal(err)
			}
		}
		ndjsonBody = buf.Bytes()
	}
	frameBody := binaryBody(b, evs, 1024)

	// The stream fully turns the worker pool over each period, so per-window
	// worker-index rebuilds would weigh on the engine floor both codecs
	// share; cell-index graphs (identical edge sets) keep the measurement
	// on the wire path instead.
	benchCfg := func() engine.Config {
		cfg := flatEngineConfig(in, 0)
		cfg.CellIndexGraphs = true
		return cfg
	}

	run := func(b *testing.B, ct string, body []byte) {
		srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
			{Name: "warm", Engine: benchCfg()},
		}})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		defer hs.Close()
		defer srv.Drain()
		client := hs.Client()

		post := func(tenant string) {
			resp, err := client.Post(hs.URL+"/v1/"+tenant+"/ingest", ct, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var res server.IngestResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || res.Accepted != len(evs) {
				b.Fatalf("ingest: status %d accepted %d/%d (%s)", resp.StatusCode, res.Accepted, len(evs), res.Error)
			}
		}
		post("warm") // connection + pool warmup outside the timer

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			name := fmt.Sprintf("iter%d", i)
			if err := srv.AddTenant(server.TenantConfig{Name: name, Engine: benchCfg()}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			post(name)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(len(evs)), "events/op")
	}

	b.Run("json", func(b *testing.B) {
		run(b, "application/x-ndjson", ndjsonBody)
	})
	b.Run("binary", func(b *testing.B) {
		run(b, wire.ContentType, frameBody)
	})
}
