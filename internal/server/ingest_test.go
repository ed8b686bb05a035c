package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/wire"
)

// ingestRoute is one way of getting a stream of events into a tenant. post
// sends evs, with evs[garbage] replaced by bytes that do not decode when
// garbage >= 0, and reports the first non-success answer (or the final
// success) with Accepted summed over the requests it made. named maps the
// 1-based stream position of a refused event to the position the route's
// error message names: /events carries one event per request.
type ingestRoute struct {
	name  string
	post  func(t *testing.T, url, tenant string, evs []engine.Event, garbage int) (*http.Response, server.IngestResult)
	named func(k int) int
}

func doIngest(t *testing.T, url, contentType string, body []byte) (*http.Response, server.IngestResult) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var res server.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding ingest result (status %d): %v", resp.StatusCode, err)
	}
	return resp, res
}

// walBytes reports how many bytes the WAL records of evs occupy.
func walBytes(t *testing.T, evs []engine.Event) int64 {
	t.Helper()
	log, err := wal.Open(wal.NewMemStore(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, ev := range evs {
		payload, err := wire.AppendEvent(nil, ev.Wire())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(wal.RecEvent, payload); err != nil {
			t.Fatal(err)
		}
	}
	return log.Stats().ActiveSize
}

func jsonLine(t *testing.T, ev engine.Event) []byte {
	t.Helper()
	we, err := server.FromEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(we)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

var ingestRoutes = []ingestRoute{
	{
		name:  "ndjson",
		named: func(k int) int { return k },
		post: func(t *testing.T, url, tenant string, evs []engine.Event, garbage int) (*http.Response, server.IngestResult) {
			var body []byte
			for i, ev := range evs {
				if i == garbage {
					body = append(body, "{\"type\":\"tick\",\"period\":}\n"...)
					continue
				}
				body = append(body, jsonLine(t, ev)...)
			}
			return doIngest(t, url+"/v1/"+tenant+"/ingest", "application/x-ndjson", body)
		},
	},
	{
		name:  "binary",
		named: func(k int) int { return k },
		post: func(t *testing.T, url, tenant string, evs []engine.Event, garbage int) (*http.Response, server.IngestResult) {
			// Frames of 32 events, so a refusal lands inside a frame that
			// follows sound ones.
			var body, payload []byte
			for i, ev := range evs {
				if i == garbage {
					payload = append(payload, 0xEE) // no such event kind
				} else {
					var err error
					if payload, err = wire.AppendEvent(payload, ev.Wire()); err != nil {
						t.Fatal(err)
					}
				}
				if (i+1)%32 == 0 || i == len(evs)-1 {
					body = wire.AppendFrame(body, wire.FrameBatch, payload)
					payload = payload[:0]
				}
			}
			return doIngest(t, url+"/v1/"+tenant+"/ingest", wire.ContentType, body)
		},
	},
	{
		name:  "events",
		named: func(int) int { return 1 },
		post: func(t *testing.T, url, tenant string, evs []engine.Event, garbage int) (*http.Response, server.IngestResult) {
			var resp *http.Response
			var res server.IngestResult
			accepted := 0
			for i, ev := range evs {
				body := jsonLine(t, ev)
				if i == garbage {
					body = []byte("{\"type\":\"tick\",\"period\":}")
				}
				resp, res = doIngest(t, url+"/v1/"+tenant+"/events", "application/json", body)
				accepted += res.Accepted
				if resp.StatusCode != http.StatusAccepted {
					break
				}
			}
			res.Accepted = accepted
			return resp, res
		},
	},
}

// TestIngestRefusalContract holds every ingest entry — NDJSON and binary
// frames on /ingest, single events on /events — to one refusal contract. A
// stream that is refused at event k, because the event does not decode,
// fails validation, or overruns the engine's budget, answers with the same
// status on every entry, has accepted exactly the k-1 events before it
// (durably, on these WAL-backed tenants), names the event the same way, and
// a client that resumes from Accepted ends on exactly the revenue of an
// in-process replay. A draining tenant answers 503 on every entry. A log
// that fails mid-chunk — the disk is full or broken, the event is sound —
// answers 503 "wal unavailable" on every entry, with Accepted cut back to
// exactly the events a crash cannot lose.
func TestIngestRefusalContract(t *testing.T) {
	in := testInstance(t, 200, 40, 4)
	evs := streamEvents(t, in, engine.ReplayOpts{})
	want := inProcessStats(t, flatEngineConfig(in, 1), in, engine.ReplayOpts{})
	const k = 57 // 1-based stream position of the refused event, mid-period
	if len(evs) < 2*k || evs[k-1].Kind == engine.KindTick {
		t.Fatalf("stream of %d events does not fit the scenario", len(evs))
	}
	invalid := append([]engine.Event(nil), evs...)
	invalid[k-1] = engine.WorkerOnline(market.Worker{ID: 9, Loc: geo.Point{X: 1, Y: 1}, Radius: 0, Duration: 3})
	// The store's byte budget runs out a few bytes into event k's record.
	tornAt := walBytes(t, evs[:k-1]) + 5

	scenarios := []struct {
		name     string
		stream   []engine.Event
		garbage  int
		gated    bool            // jam the shard so the engine's budget runs out mid-stream
		walFault *wal.Failpoints // the tenant's log fails as scripted (LoseUnsynced set)
		status   int
		message  string // after the "event N: " prefix; "" accepts any
	}{
		{name: "malformed", stream: evs, garbage: k - 1, status: http.StatusBadRequest},
		{name: "invalid", stream: invalid, garbage: -1, status: http.StatusBadRequest,
			message: "worker 9 has non-positive radius 0"},
		// The invalid event sits ahead of the undecodable one in the same
		// binary frame: the earlier refusal wins on every entry.
		{name: "invalid-then-malformed", stream: invalid, garbage: k + 2, status: http.StatusBadRequest,
			message: "worker 9 has non-positive radius 0"},
		{name: "busy", stream: evs, garbage: -1, gated: true, status: http.StatusTooManyRequests},
		// The append tears mid-chunk; or the append succeeds and the
		// second fsync — an append's group commit or a response's
		// barrier — fails.
		{name: "wal-torn", stream: evs, garbage: -1, status: http.StatusServiceUnavailable,
			walFault: &wal.Failpoints{CrashAfterBytes: tornAt, LoseUnsynced: true}},
		{name: "wal-sync", stream: evs, garbage: -1, status: http.StatusServiceUnavailable,
			walFault: &wal.Failpoints{FailSyncAt: 2, LoseUnsynced: true}},
	}

	var tenants []server.TenantConfig
	gates := map[string]chan struct{}{}
	walStores := map[string]*wal.MemStore{}
	for _, sc := range scenarios {
		for _, rt := range ingestRoutes {
			name := sc.name + "-" + rt.name
			cfg := flatEngineConfig(in, 1)
			if sc.gated {
				gate := make(chan struct{})
				gates[name] = gate
				cfg.Buffer = 8
				cfg.NewStrategy = func(int) core.Strategy {
					return &gateStrategy{flatStrategy: flatStrategy{price: 1.5}, gate: gate}
				}
			}
			tc := server.TenantConfig{Name: name, Engine: cfg, WALDir: t.TempDir(), WALSyncEvery: 64}
			if sc.walFault != nil {
				// The log comes in through the engine config, so the
				// tenant's durability barrier must reach it there.
				mem := wal.NewMemStore()
				fp := wal.NewFailpointStore(mem, *sc.walFault)
				log, err := wal.Open(fp, wal.Options{Sync: wal.SyncBatch, BatchAppends: 16})
				if err != nil {
					t.Fatal(err)
				}
				defer log.Close()
				walStores[name] = mem
				tc.Engine.WAL, tc.WALDir = log, ""
			}
			tenants = append(tenants, tc)
		}
	}
	srv, err := server.New(server.Config{BusyGrace: -1, Tenants: tenants})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Drain()

	for _, sc := range scenarios {
		for _, rt := range ingestRoutes {
			name := sc.name + "-" + rt.name
			t.Run(name, func(t *testing.T) {
				resp, res := rt.post(t, hs.URL, name, sc.stream, sc.garbage)
				if resp.StatusCode != sc.status {
					t.Fatalf("status %d (%s), want %d", resp.StatusCode, res.Error, sc.status)
				}
				tn, _ := srv.Tenant(name)
				if got := tn.Engine().WALDurableLSN(); got < uint64(res.Accepted) {
					t.Errorf("answered with %d accepted but only %d durable", res.Accepted, got)
				}
				if sc.gated {
					if res.Accepted == 0 || res.Accepted >= len(evs) || res.Error != "ingest queue full" ||
						res.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "" {
						t.Fatalf("429 answer: %+v, Retry-After %q", res, resp.Header.Get("Retry-After"))
					}
					if tn.Rejected() == 0 {
						t.Error("rejected counter not bumped by a 429")
					}
					close(gates[name])
				} else if sc.walFault != nil {
					// Exactly what survives a machine crash: the fsynced
					// prefix, and nothing the client would have to re-send
					// blind.
					durable := tn.Engine().WALDurableLSN()
					if res.Error != "wal unavailable" || res.Accepted >= k || uint64(res.Accepted) != durable {
						t.Fatalf("answer %+v, want \"wal unavailable\" with the %d durable events accepted (< %d)", res, durable, k)
					}
					t.Logf("accepted %d of the stream, all of them durable", res.Accepted)
					survivors, err := wal.Open(walStores[name], wal.Options{})
					if err != nil {
						t.Fatalf("reopening the failed log: %v", err)
					}
					if got := survivors.LastLSN(); got != durable {
						t.Errorf("log holds %d records after the failure, acknowledged %d", got, durable)
					}
					survivors.Close()
					// The log stays poisoned: later posts are refused whole.
					resp, res := rt.post(t, hs.URL, name, evs[res.Accepted:], -1)
					if resp.StatusCode != http.StatusServiceUnavailable || res.Accepted != 0 || res.Error != "wal unavailable" {
						t.Fatalf("post after the failure: status %d %+v, want 503 wal unavailable with 0 accepted", resp.StatusCode, res)
					}
					return
				} else {
					if res.Accepted != k-1 {
						t.Errorf("accepted %d, want the %d events before the refused one", res.Accepted, k-1)
					}
					prefix := fmt.Sprintf("event %d: ", rt.named(k))
					if !strings.HasPrefix(res.Error, prefix) || (sc.message != "" && res.Error != prefix+sc.message) {
						t.Errorf("error %q, want %q", res.Error, prefix+sc.message)
					}
				}
				// Resume from the cursor with the sound stream.
				for sent, deadline := res.Accepted, time.Now().Add(10*time.Second); sent < len(evs); {
					if time.Now().After(deadline) {
						t.Fatalf("resume did not complete: %d/%d", sent, len(evs))
					}
					resp, res := rt.post(t, hs.URL, name, evs[sent:], -1)
					sent += res.Accepted
					switch resp.StatusCode {
					case http.StatusOK, http.StatusAccepted:
					case http.StatusTooManyRequests:
						time.Sleep(2 * time.Millisecond)
					default:
						t.Fatalf("resume: status %d (%s)", resp.StatusCode, res.Error)
					}
				}
			})
		}
	}

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, tc := range tenants {
		if walStores[tc.Name] != nil {
			continue // a failed log ends the stream; nothing was resumed
		}
		tn, _ := srv.Tenant(tc.Name)
		got := tn.Engine().Stats()
		if got.Revenue != want.Revenue || got.Served != want.Served || got.Events != want.Events {
			t.Errorf("%s: resumed stream ended on revenue %.9f served %d events %d, in-process %.9f/%d/%d",
				tc.Name, got.Revenue, got.Served, got.Events, want.Revenue, want.Served, want.Events)
		}
	}
	for _, rt := range ingestRoutes {
		resp, res := rt.post(t, hs.URL, "busy-"+rt.name, evs[:3], -1)
		if resp.StatusCode != http.StatusServiceUnavailable || res.Accepted != 0 || res.Error != "draining" {
			t.Errorf("%s after drain: status %d %+v, want 503 draining with 0 accepted", rt.name, resp.StatusCode, res)
		}
	}
}

// TestTickFirstPipelining pins the flush rule of the NDJSON decoder: a
// client's window of events starts with the Tick that closes the previous
// window, and that close must run while the rest of the body is still
// arriving. The body here is the Tick line followed by a pause with the
// request still open; the closed window's decision has to be fetchable
// during the pause. An implementation that decodes the whole body before
// submitting anything never answers the fetch.
func TestTickFirstPipelining(t *testing.T) {
	in := testInstance(t, 50, 20, 2)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "c", Engine: flatEngineConfig(in, 1)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Drain()

	task := in.TasksByPeriod()[0][0]
	window0 := []engine.Event{engine.Tick(0), engine.TaskArrival(task)}
	for _, w := range in.WorkersByStart()[0] {
		window0 = append(window0, engine.WorkerOnline(w))
	}
	ingestAll(t, hs.URL, "c", window0)

	pr, pw := io.Pipe()
	defer pw.Close() // a failing run must not leave the request open under hs.Close
	type answer struct {
		status int
		res    server.IngestResult
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/c/ingest", "application/x-ndjson", pr)
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		a.err = json.NewDecoder(resp.Body).Decode(&a.res)
		done <- a
	}()
	if _, err := pw.Write(jsonLine(t, engine.Tick(1))); err != nil {
		t.Fatal(err)
	}

	// The body is still open. The fetch long-polls, so it returns as soon as
	// the window closes; only a handler that is waiting for the rest of the
	// body runs it into its timeout.
	resp, err := http.Get(fmt.Sprintf("%s/v1/c/quotes/%d?timeout_ms=5000", hs.URL, task.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quote fetch with the ingest body still open: status %d, want 200 — the Tick was not submitted before the body ended", resp.StatusCode)
	}
	select {
	case a := <-done:
		t.Fatalf("ingest answered (%+v) before its body ended", a)
	default:
	}

	rest := []engine.Event{engine.TaskArrival(in.TasksByPeriod()[1][0]), engine.Tick(2)}
	for _, ev := range rest {
		if _, err := pw.Write(jsonLine(t, ev)); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	a := <-done
	if a.err != nil || a.status != http.StatusOK || a.res.Accepted != 1+len(rest) {
		t.Fatalf("ingest answer %+v, want 200 with %d accepted", a, 1+len(rest))
	}
}
