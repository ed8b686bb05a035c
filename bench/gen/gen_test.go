package gen

import (
	"reflect"
	"testing"

	"spatialcrowd/internal/engine"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, k := range []Kind{DenseGrid, IngestWAL, RoadQuoted, CitySteady} {
		windows := 20
		if k == RoadQuoted || k == CitySteady {
			windows = 120
		}
		a, err := Make(k, windows, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Make(k, windows, 5)
		c, _ := Make(k, windows, 6)
		var ea, eb, ec []engine.Event
		for i := 0; i < a.Chunks(); i++ {
			ea, eb = a.Events(i, ea), b.Events(i, eb)
		}
		for i := 0; i < c.Chunks(); i++ {
			ec = c.Events(i, ec)
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Errorf("kind %d: equal seeds gave different streams", k)
		}
		if reflect.DeepEqual(ea, ec) {
			t.Errorf("kind %d: different seeds gave the same stream", k)
		}
		if len(ea) != a.NumEvents {
			t.Errorf("kind %d: NumEvents %d, stream has %d", k, a.NumEvents, len(ea))
		}
	}
}

// Every chunk opens with its tick, and a quoted stream answers each quote
// in the chunk right after the window that issued it.
func TestChunkShape(t *testing.T) {
	s, err := Make(RoadQuoted, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	window := map[int]int{}
	for w, p := range s.Periods {
		for _, task := range p.Tasks {
			window[task.ID] = w
		}
	}
	replies := 0
	var evs []engine.Event
	for c := 0; c < s.Chunks(); c++ {
		evs = s.Events(c, evs[:0])
		if evs[0].Kind != engine.KindTick || evs[0].Period != c {
			t.Fatalf("chunk %d opens with %+v", c, evs[0])
		}
		for _, ev := range evs {
			if ev.Kind == engine.KindAcceptDecision {
				replies++
				if window[ev.TaskID] != c-1 {
					t.Fatalf("chunk %d answers task %d of window %d", c, ev.TaskID, window[ev.TaskID])
				}
			}
		}
	}
	if replies != s.NumReplies || replies == 0 {
		t.Errorf("%d replies in the stream, NumReplies %d", replies, s.NumReplies)
	}
	if last := evs[len(evs)-1]; last.Kind != engine.KindTick || last.Period != s.Windows()+1 {
		t.Errorf("quoted stream must end with the finalizing tick, got %+v", last)
	}
}
