package loadgen

import (
	"bytes"
	"testing"
	"time"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

func sampleEvents() []engine.Event {
	return []engine.Event{
		engine.Tick(4),
		engine.AcceptDecision(9, true),
		engine.WorkerMove(3, geo.Point{X: 1.5, Y: 2.5}),
		engine.WorkerOffline(8),
		engine.WorkerOnline(market.Worker{ID: 5, Period: 4, Loc: geo.Point{X: 3, Y: 4}, Radius: 2, Duration: 6}),
		engine.TaskArrival(market.Task{ID: 11, Period: 4, Origin: geo.Point{X: 1, Y: 1}, Dest: geo.Point{X: 2, Y: 2}, Distance: 1.4, Valuation: 3}),
	}
}

// A 429 answer accepts a prefix; the tail the codec cuts must be exactly the
// encoding of the remaining events, whichever kinds the prefix held.
func TestTailIsTheEncodingOfTheRest(t *testing.T) {
	evs := sampleEvents()
	for _, name := range []string{"binary", "json"} {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := c.Encode(nil, evs)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(evs); n++ {
			tail, err := c.Tail(body, n)
			if err != nil {
				t.Fatalf("%s: Tail(%d): %v", name, n, err)
			}
			want, err := c.Encode(nil, evs[n:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tail, want) {
				t.Errorf("%s: Tail(body, %d) differs from Encode(evs[%d:])", name, n, n)
			}
		}
		if _, err := c.Tail(body, len(evs)+1); err == nil {
			t.Errorf("%s: Tail past the end must fail", name)
		}
	}
}

func TestParseDecision(t *testing.T) {
	s, err := parseDecision([]byte(`{"task_id":42,"period":7,"cell":3,"price":1.5,"quoted":false,"accepted":true,"served":true,"worker_id":9,"revenue":2.5,"latency_ns":100}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.TaskID != 42 || s.Period != 7 || s.Quoted || !s.Accepted || !s.Served {
		t.Errorf("parsed %+v", s)
	}
	if _, err := parseDecision([]byte(`{"task_id":42}`)); err == nil {
		t.Error("a frame without the expected fields must be refused")
	}
}

// The consumer counts what a stream owes once: a price per task and, when
// quoted, the first decision after it. Superseding re-assignments are
// samples but not owed.
func TestConsumerCountsOwedDecisionsOnce(t *testing.T) {
	c := NewConsumer(2, true)
	c.OnDecision(engine.Decision{TaskID: 0, Quoted: true})
	c.OnDecision(engine.Decision{TaskID: 1, Quoted: true})
	c.OnDecision(engine.Decision{TaskID: 0, Accepted: true, Served: true})
	c.OnDecision(engine.Decision{TaskID: 0, Accepted: true, Served: true}) // superseding
	if c.Received() != 3 || len(c.Samples()) != 4 {
		t.Errorf("owed %d of 4 samples, want 3", c.Received())
	}
	a := NewConsumer(1, false)
	a.OnDecision(engine.Decision{TaskID: 0, Accepted: true})
	if a.Received() != 1 {
		t.Errorf("auto-decide: owed %d, want 1", a.Received())
	}
}

type recordingTarget struct{ slow time.Duration }

func (r recordingTarget) Send(c int, rep *Report) error {
	time.Sleep(r.slow)
	rep.Accepted++
	return nil
}

// Open loop: chunks keep their due times when the target is slow, and the
// lateness that causes is the target's (backlog), not the generator's.
func TestOpenLoopKeepsDueTimes(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	rep, err := Run(Plan{Chunks: len(due), Due: due}, recordingTarget{slow: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for c, d := range due {
		if rep.Due[c] != int64(d) {
			t.Errorf("chunk %d due %d, want %d", c, rep.Due[c], d)
		}
	}
	if b := rep.Backlog()[3]; b < int64(5*time.Millisecond) {
		t.Errorf("last chunk sent %dns behind schedule, want the three slow sends before it to show", b)
	}
	if l := rep.Late()[3]; l > int64(2*time.Millisecond) {
		t.Errorf("generator charged with %dns of the target's slowness", l)
	}
}
