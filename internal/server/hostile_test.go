package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
)

// TestCodecsRejectHostileNumbers holds both codecs to one event space at its
// numeric edge: a non-finite position, a negative or non-finite distance, a
// non-positive or non-finite radius is a 400 with the same message whether
// it arrives as a binary frame, as NDJSON (where JSON can spell the number
// at all), or through the JSON decoder's WireEvent.Event directly. Nothing
// of the kind may reach the engine, where coordinates become array indices.
func TestCodecsRejectHostileNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	at := geo.Point{X: 10, Y: 20}
	task := func(mut func(*market.Task)) engine.Event {
		tk := market.Task{ID: 7, Origin: at, Dest: geo.Point{X: 30, Y: 40}, Distance: 28, Valuation: 3}
		mut(&tk)
		return engine.TaskArrival(tk)
	}
	worker := func(mut func(*market.Worker)) engine.Event {
		w := market.Worker{ID: 9, Loc: at, Radius: 5, Duration: 3}
		mut(&w)
		return engine.WorkerOnline(w)
	}
	cases := []struct {
		name string
		ev   engine.Event
		want string
	}{
		{"task-origin-nan", task(func(t *market.Task) { t.Origin.X = nan }), "task 7 has a non-finite position"},
		{"task-origin-inf", task(func(t *market.Task) { t.Origin.Y = -inf }), "task 7 has a non-finite position"},
		{"task-dest-nan", task(func(t *market.Task) { t.Dest.Y = nan }), "task 7 has a non-finite position"},
		{"task-dest-inf", task(func(t *market.Task) { t.Dest.X = inf }), "task 7 has a non-finite position"},
		{"task-distance-negative", task(func(t *market.Task) { t.Distance = -1 }), "task 7 has negative distance -1"},
		{"task-distance-nan", task(func(t *market.Task) { t.Distance = nan }), "task 7 has non-finite distance NaN"},
		{"task-distance-inf", task(func(t *market.Task) { t.Distance = inf }), "task 7 has non-finite distance +Inf"},
		{"worker-loc-nan", worker(func(w *market.Worker) { w.Loc.Y = nan }), "worker 9 has a non-finite position"},
		{"worker-loc-inf", worker(func(w *market.Worker) { w.Loc.X = inf }), "worker 9 has a non-finite position"},
		{"worker-radius-zero", worker(func(w *market.Worker) { w.Radius = 0 }), "worker 9 has non-positive radius 0"},
		{"worker-radius-negative", worker(func(w *market.Worker) { w.Radius = -2 }), "worker 9 has non-positive radius -2"},
		{"worker-radius-nan", worker(func(w *market.Worker) { w.Radius = nan }), "worker 9 has non-finite radius NaN"},
		{"worker-radius-inf", worker(func(w *market.Worker) { w.Radius = inf }), "worker 9 has non-finite radius +Inf"},
		{"move-to-nan", engine.WorkerMove(9, geo.Point{X: nan, Y: 1}), "worker 9 moves to a non-finite position"},
		{"move-to-inf", engine.WorkerMove(9, geo.Point{X: 1, Y: inf}), "worker 9 moves to a non-finite position"},
	}

	in := testInstance(t, 50, 20, 2)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "c", Engine: flatEngineConfig(in, 0)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Drain()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			we, err := server.FromEvent(tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := we.Event(); err == nil || err.Error() != tc.want {
				t.Errorf("WireEvent.Event: %v, want %q", err, tc.want)
			}

			// A good event first: the refusal must name the second event
			// and keep the first.
			evs := []engine.Event{engine.Tick(0), tc.ev}
			resp, res := postBinary(t, hs.URL, "c", binaryBody(t, evs, 8))
			if resp.StatusCode != http.StatusBadRequest || res.Error != "event 2: "+tc.want {
				t.Errorf("binary: status %d error %q, want 400 %q", resp.StatusCode, res.Error, "event 2: "+tc.want)
			}

			line, err := json.Marshal(we)
			if err != nil {
				return // JSON has no spelling for NaN or Inf
			}
			body := append([]byte(`{"type":"tick","period":0}`+"\n"), line...)
			hr, err := http.Post(hs.URL+"/v1/c/ingest", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			var jres server.IngestResult
			if err := json.NewDecoder(hr.Body).Decode(&jres); err != nil {
				t.Fatal(err)
			}
			if hr.StatusCode != http.StatusBadRequest || jres.Error != "event 2: "+tc.want || jres.Accepted != 1 {
				t.Errorf("ndjson: status %d accepted %d error %q, want 400, 1, %q",
					hr.StatusCode, jres.Accepted, jres.Error, "event 2: "+tc.want)
			}
		})
	}
}

// TestListenerTimeouts: the listener configuration the service runs under
// (Server.HTTPServer) disconnects a client that never finishes its request
// headers and reaps a keep-alive connection left idle, while a healthy
// ingest — even one whose body stays open longer than both timeouts — is
// untouched. The constants are scaled down on the returned http.Server so
// the test runs in a fraction of a second; that they are set at all, and
// that no read or write timeout is (either would cut streaming bodies and
// SSE), is asserted on the untouched value first.
func TestListenerTimeouts(t *testing.T) {
	in := testInstance(t, 50, 20, 2)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "c", Engine: flatEngineConfig(in, 1)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer srv.Drain()
	hs := srv.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("HTTPServer timeouts: header %v idle %v read %v write %v; want the first two set, the last two unset",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.ReadTimeout, hs.WriteTimeout)
	}
	const timeout = 150 * time.Millisecond
	hs.ReadHeaderTimeout, hs.IdleTimeout = timeout, timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	// closedWithin reports whether the server hangs up on conn before the
	// deadline, after discarding anything it still sends.
	closedWithin := func(conn net.Conn, d time.Duration) bool {
		conn.SetReadDeadline(time.Now().Add(d))
		_, err := io.Copy(io.Discard, conn)
		ne, isNet := err.(net.Error)
		return !(isNet && ne.Timeout())
	}

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST /v1/c/ingest HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-ndjson\r\n"); err != nil {
		t.Fatal(err)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over the soon-idle connection: %v %v", resp, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The healthy client: its headers arrive at once, its body stays open
	// until both of the others have been cut off and a timeout longer, and
	// it is answered normally.
	pr, pw := io.Pipe()
	defer pw.Close()
	healthy := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/c/ingest", "application/x-ndjson", pr)
		if err != nil {
			healthy <- err
			return
		}
		defer resp.Body.Close()
		var res server.IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			healthy <- err
		} else if resp.StatusCode != http.StatusOK || res.Accepted != 2 {
			healthy <- fmt.Errorf("status %d, %+v", resp.StatusCode, res)
		} else {
			healthy <- nil
		}
	}()
	io.WriteString(pw, `{"type":"tick","period":0}`+"\n")

	if !closedWithin(slow, 20*timeout) {
		t.Error("a client that never finished its headers was not disconnected")
	}
	if !closedWithin(idle, 20*timeout) {
		t.Error("an idle keep-alive connection was not reaped")
	}
	time.Sleep(timeout)
	io.WriteString(pw, `{"type":"tick","period":1}`+"\n")
	pw.Close()
	if err := <-healthy; err != nil {
		t.Errorf("healthy ingest with a slow body: %v", err)
	}
}
