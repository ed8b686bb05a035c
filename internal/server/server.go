// Package server is the network-facing dispatch service over the streaming
// engine: one HTTP listener hosting N isolated "city" tenants, each a
// private engine instance. It ingests market events (NDJSON or binary batch
// frames, and single JSON events), streams price quotes back to requesters
// (SSE broadcast and long-poll by task ID), enforces admission control
// against the engine's bounded event budget (429 + Retry-After — never
// unbounded buffering), exposes engine statistics as Prometheus text on
// /metrics and JSON on /stats, and drains gracefully: ingestion quiesces,
// every tenant writes an atomic checkpoint through the PR-5 seam, engines
// close.
//
// There is one ingest pipeline. Whatever the route and codec, a handler
// decodes the body into a pooled []engine.Event, submits it chunk by chunk
// with Tenant.submitBatch -> Engine.TrySubmitBatch, and maps any refusal to
// a status in refuse; the events before a refusal are accepted (and, with a
// WAL, fsynced) before the response is written, so IngestResult.Accepted is
// the client's resume cursor under 400, 429 and 503 alike.
//
// Endpoints (all tenant routes under /v1/{tenant}/):
//
//	POST /v1/{tenant}/events        one WireEvent            -> 202 IngestResult
//	POST /v1/{tenant}/ingest        NDJSON or binary frames  -> 200/429 IngestResult
//	GET  /v1/{tenant}/quotes/{task} long-poll one decision   -> 200 WireDecision | 204
//	GET  /v1/{tenant}/quotes/stream SSE of every decision
//	GET  /v1/{tenant}/stats         engine.Stats JSON
//	GET  /metrics                   Prometheus text, all tenants
//	GET  /healthz                   200 while serving, 503 once draining
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"spatialcrowd/internal/engine"
)

// Config parameterizes a Server.
type Config struct {
	// Tenants are the cities to host. At least one; more can be added with
	// AddTenant before serving.
	Tenants []TenantConfig
	// RetryAfter is the advisory client backoff sent with 429 responses
	// (rounded up to whole seconds for the header; the JSON carries the
	// exact value). Default 50ms.
	RetryAfter time.Duration
	// BusyGrace is how long an ingest handler nudges a momentarily full
	// queue (short sleeps between TrySubmit attempts) before giving up with
	// 429. It bounds handler latency, not memory — nothing is buffered
	// while waiting. Default 2ms; negative disables the grace entirely.
	BusyGrace time.Duration
	// MaxBodyBytes caps a single request body. Default 64 MiB.
	MaxBodyBytes int64
}

// IngestResult is the JSON body of every ingest response. Accepted counts
// events durably handed to the engine in this request; a client that gets
// 429 resumes its stream after skipping that many events — the retry
// protocol that makes backpressure lossless end to end. For WAL-backed
// tenants the handlers fsync before answering, so Accepted events are
// crash-durable and DurableLSN is the log position that covers them.
type IngestResult struct {
	Accepted     int     `json:"accepted"`
	Error        string  `json:"error,omitempty"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
	DurableLSN   uint64  `json:"durable_lsn,omitempty"`
}

// Server hosts the tenant registry and implements http.Handler.
type Server struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []string

	retryAfter time.Duration
	busyGrace  time.Duration
	maxBody    int64
	mux        *http.ServeMux
	draining   bool

	// ingestPool recycles the per-request decode state (event slice, frame
	// buffer) across connections; see binary.go.
	ingestPool sync.Pool
}

// New builds a server and starts every configured tenant's engine.
func New(cfg Config) (*Server, error) {
	s := &Server{
		tenants:    make(map[string]*Tenant),
		retryAfter: cfg.RetryAfter,
		busyGrace:  cfg.BusyGrace,
		maxBody:    cfg.MaxBodyBytes,
	}
	if s.retryAfter <= 0 {
		s.retryAfter = 50 * time.Millisecond
	}
	if s.busyGrace == 0 {
		s.busyGrace = 2 * time.Millisecond
	}
	if s.maxBody <= 0 {
		s.maxBody = 64 << 20
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/events", func(w http.ResponseWriter, r *http.Request) { s.handleIngest(w, r, true) })
	mux.HandleFunc("POST /v1/{tenant}/ingest", func(w http.ResponseWriter, r *http.Request) { s.handleIngest(w, r, false) })
	mux.HandleFunc("GET /v1/{tenant}/quotes/stream", s.handleQuoteStream)
	mux.HandleFunc("GET /v1/{tenant}/quotes/{task}", s.handleQuote)
	mux.HandleFunc("GET /v1/{tenant}/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	for _, tc := range cfg.Tenants {
		if err := s.AddTenant(tc); err != nil {
			s.Drain()
			return nil, err
		}
	}
	return s, nil
}

// AddTenant registers one more city. Fails on duplicate or invalid names
// and after Drain.
func (s *Server) AddTenant(cfg TenantConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return fmt.Errorf("server: draining, cannot add tenant %q", cfg.Name)
	}
	if _, dup := s.tenants[cfg.Name]; dup {
		return fmt.Errorf("server: duplicate tenant %q", cfg.Name)
	}
	t, err := newTenant(cfg)
	if err != nil {
		return err
	}
	s.tenants[cfg.Name] = t
	s.order = append(s.order, cfg.Name)
	return nil
}

// Tenant looks a city up by name.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// Drain quiesces the whole server: every tenant stops admitting events
// (503), writes its checkpoint if configured, and closes its engine. The
// HTTP listener itself is the caller's to shut down (http.Server.Shutdown)
// — typically after Drain returns so late scrapes of /metrics still see
// the final counters. Idempotent; returns the joined per-tenant errors.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	ts := make([]*Tenant, 0, len(s.order))
	for _, name := range s.order {
		ts = append(ts, s.tenants[name])
	}
	s.mu.Unlock()
	var errs []error
	for _, t := range ts {
		if err := t.drain(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Listener-side timeouts. A client that opens a connection and never
// finishes its request headers, or keeps an idle keep-alive connection open
// forever, holds a goroutine and a file descriptor each; these bound both.
// There is deliberately no read or write timeout on the request itself: an
// ingest body may be a long-lived stream and /quotes/stream is one by
// design, so both would be cut.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer wraps the server in a net/http listener configuration with the
// timeouts above; callers Serve it on their own listener and Shutdown it
// after Drain.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// tenantOf resolves the {tenant} path segment, answering 404 itself when
// unknown.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.Tenant(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, IngestResult{Error: fmt.Sprintf("unknown tenant %q", name)})
		return nil, false
	}
	return t, true
}

// handleIngest serves both ingest routes, stopping at the first refusal.
// Content-Type selects the codec: NDJSON (default) decodes WireEvents line
// by line; wire.ContentType carries binary batch frames (binary.go). The
// codecs differ only in how bytes become events: both decode into the same
// pooled slice and submit it through submitChunk, and the response's
// Accepted count tells the client exactly how far the stream got, so a
// retry resumes without loss or duplication. single is the /events route:
// the NDJSON path stopped after one event and answering 202. It is
// JSON-only — binary frames are batch-shaped and go to /ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, single bool) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	codec, ok := s.checkCodec(w, r, t)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	switch {
	case codec == codecJSON:
		s.ingestJSON(w, t, body, single)
	case single:
		writeJSON(w, http.StatusUnsupportedMediaType,
			IngestResult{Error: "binary frames are accepted on /ingest only"})
	default:
		s.ingestBinary(w, t, body)
	}
}

// maxChunk bounds the events the NDJSON decoder buffers between submits, so
// a long body holds a bounded slice and reaches the engine while it is still
// arriving. The engine cuts what it is given into its own envelopes.
const maxChunk = 1024

// ingestJSON decodes WireEvents from body with the NDJSON scanner
// (ndjson.go) and submits them in chunks. A chunk goes to the engine when
// it holds maxChunk events, at end of body, and as soon as it ends in a
// Tick: a client's window of events starts with the Tick that closes the
// previous window, and submitting that Tick at once lets the close run
// while the rest of the body is still being decoded (waiting for the whole
// body cost road-quoted 20 % of events_per_s; see EXPERIMENTS.md, ablation
// 2). single stops after one event and answers 202 — the /events contract.
func (s *Server) ingestJSON(w http.ResponseWriter, t *Tenant, body io.Reader, single bool) {
	st := s.getIngest()
	defer s.putIngest(st)
	sc := &st.js
	sc.reset(body)
	accepted := 0
	defer func() { t.noteCodecTraffic(codecJSON, accepted, sc.n) }()
	okStatus := http.StatusOK
	if single {
		okStatus = http.StatusAccepted
	}
	for {
		st.evs = append(st.evs, engine.Event{})
		ev := &st.evs[len(st.evs)-1]
		if err := sc.next(ev); err != nil {
			st.evs = st.evs[:len(st.evs)-1]
			if err == io.EOF && !single {
				break
			}
			// The events before the bad one stand: submit them first, so
			// Accepted is the resume cursor under a 400 too.
			if s.submitChunk(w, t, st.evs, &accepted) {
				s.refuse(w, t, accepted, err)
			}
			return
		}
		if single {
			break
		}
		if ev.Kind == engine.KindTick || len(st.evs) == maxChunk {
			if !s.submitChunk(w, t, st.evs, &accepted) {
				return
			}
			st.evs = st.evs[:0]
		}
	}
	if s.submitChunk(w, t, st.evs, &accepted) {
		s.finishIngest(w, t, okStatus, IngestResult{Accepted: accepted})
	}
}

// submitChunk hands a decoded chunk to the tenant through admission control
// and adds the accepted prefix to *accepted. On a refusal it answers the
// request and reports false.
func (s *Server) submitChunk(w http.ResponseWriter, t *Tenant, evs []engine.Event, accepted *int) bool {
	if len(evs) == 0 {
		return true
	}
	n, err := s.submitBatchAdmitted(t, evs)
	*accepted += n
	if err != nil {
		s.refuse(w, t, *accepted, err)
		return false
	}
	return true
}

// submitBatchAdmitted runs one decoded chunk through the tenant's admission
// control with the configured busy grace: a partially accepted chunk gets a
// few short waits (resuming at the accepted offset; nothing is buffered
// while waiting) before ErrBusy sticks and the events past the accepted
// prefix count as rejected. Returns the total accepted prefix.
func (s *Server) submitBatchAdmitted(t *Tenant, evs []engine.Event) (int, error) {
	accepted, err := t.submitBatch(evs)
	const step = 100 * time.Microsecond
	for waited := time.Duration(0); err == engine.ErrBusy && waited < s.busyGrace; waited += step {
		time.Sleep(step)
		var n int
		n, err = t.submitBatch(evs[accepted:])
		accepted += n
	}
	if err == engine.ErrBusy {
		t.rejected.Add(int64(len(evs) - accepted))
	}
	return accepted, err
}

// refuse answers an ingest request that stops at event accepted+1 — the one
// mapping from a refusal to a status, shared by every route and codec: a
// spent budget is 429 with Retry-After, a draining tenant or a failed WAL
// 503, and anything else (an undecodable or invalid event, an engine error)
// 400 naming the event.
func (s *Server) refuse(w http.ResponseWriter, t *Tenant, accepted int, err error) {
	res := IngestResult{Accepted: accepted}
	switch {
	case err == engine.ErrBusy:
		s.writeBusy(w, t, res)
	case err == errDraining || err == engine.ErrClosed:
		res.Error = "draining"
		s.finishIngest(w, t, http.StatusServiceUnavailable, res)
	case errors.Is(err, engine.ErrWAL):
		writeWALUnavailable(w, t, res)
	default:
		res.Error = fmt.Sprintf("event %d: %v", accepted+1, err)
		s.finishIngest(w, t, http.StatusBadRequest, res)
	}
}

// finishIngest writes an ingest response whose Accepted count a client may
// act on as a resume cursor — so for WAL-backed tenants it first runs the
// group-commit barrier, answering 503 if durability cannot be promised.
// Every terminal path of the ingest handlers funnels through here: an
// acknowledged event count is never weaker than an fsync.
func (s *Server) finishIngest(w http.ResponseWriter, t *Tenant, code int, res IngestResult) {
	if res.Accepted > 0 {
		if err := t.eng.SyncWAL(); err != nil {
			writeWALUnavailable(w, t, res)
			return
		}
		res.DurableLSN = t.durableLSN()
	}
	writeJSON(w, code, res)
}

// writeWALUnavailable answers 503 for a tenant whose log failed: the disk is
// full or failing, not the request malformed. The log is poisoned until the
// tenant restarts and recovers, and Accepted is cut back to the events of
// this request that an fsync covered, so a client resuming from it never
// skips an event a crash could still lose.
func writeWALUnavailable(w http.ResponseWriter, t *Tenant, res IngestResult) {
	res.Accepted = t.durablePrefix(res.Accepted)
	res.Error = "wal unavailable"
	res.DurableLSN = t.durableLSN()
	writeJSON(w, http.StatusServiceUnavailable, res)
}

// writeBusy answers 429 with the advisory Retry-After. The Accepted count
// in a 429 is precisely the client's resume offset, so it passes through
// the same durability barrier as a success: on a WAL-backed tenant the
// offset is backed by an fsynced LSN before the client ever sees it.
func (s *Server) writeBusy(w http.ResponseWriter, t *Tenant, res IngestResult) {
	res.Error = "ingest queue full"
	res.RetryAfterMS = float64(s.retryAfter) / float64(time.Millisecond)
	secs := int(s.retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.finishIngest(w, t, http.StatusTooManyRequests, res)
}

// handleQuote long-polls the decision for one task ID. ?timeout_ms bounds
// the wait (default 30s, cap 120s); no decision in time answers 204.
func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	taskID, err := strconv.Atoi(r.PathValue("task"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, IngestResult{Error: "task ID must be an integer"})
		return
	}
	timeout := 30 * time.Second
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, IngestResult{Error: "timeout_ms must be a non-negative integer"})
			return
		}
		timeout = time.Duration(v) * time.Millisecond
		if timeout > 120*time.Second {
			timeout = 120 * time.Second
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if d, ok := t.hub.Await(ctx, taskID); ok {
		writeJSON(w, http.StatusOK, wireDecision(d))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStats serves the tenant's engine statistics in the stable JSON
// shape of engine.Stats.MarshalJSON.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, t.eng.Stats())
}

// handleHealth answers 200 while serving and 503 once draining.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
