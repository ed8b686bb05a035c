package server_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

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
