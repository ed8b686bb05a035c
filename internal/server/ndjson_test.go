package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

// referenceDecode runs body through encoding/json the way the NDJSON route
// once did — Decoder.Decode into a WireEvent, then WireEvent.Event — up to
// the first error. semantic reports that the error came from Event, whose
// message the scanner must repeat exactly.
func referenceDecode(body []byte) (evs []engine.Event, semantic bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var we WireEvent
		if err := dec.Decode(&we); err == io.EOF {
			return evs, false, nil
		} else if err != nil {
			return evs, false, err
		}
		ev, err := we.Event()
		if err != nil {
			return evs, true, err
		}
		evs = append(evs, ev)
	}
}

// scanAll decodes body with sc up to the first error.
func scanAll(sc *eventScanner, r io.Reader) ([]engine.Event, error) {
	sc.reset(r)
	var evs []engine.Event
	for {
		var ev engine.Event
		if err := sc.next(&ev); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// sameEvents compares events field by field, telling -0 from 0.
func sameEvents(a, b []engine.Event) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkAgainstJSON holds the scanner to encoding/json on one body: the
// same events accepted, the refusal at the same value, and a semantic
// refusal in the same words. The scanner runs twice, over the whole body
// and over a one-byte reader into a three-byte buffer, so that every token
// straddles a refill and grows the buffer.
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	want, semantic, wantErr := referenceDecode(body)
	for _, run := range []struct {
		name string
		sc   *eventScanner
		r    io.Reader
	}{
		{"whole", &eventScanner{}, bytes.NewReader(body)},
		{"bytewise", &eventScanner{buf: make([]byte, 3)}, iotest.OneByteReader(bytes.NewReader(body))},
	} {
		got, err := scanAll(run.sc, run.r)
		if !sameEvents(got, want) {
			t.Fatalf("%s: body %q\nscanner:       %#v\nencoding/json: %#v", run.name, body, got, want)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: body %q: scanner error %v, encoding/json error %v", run.name, body, err, wantErr)
		}
		if semantic && err.Error() != wantErr.Error() {
			t.Fatalf("%s: body %q: scanner refused with %q, WireEvent.Event with %q", run.name, body, err, wantErr)
		}
	}
}

// wireSeeds is FromEvent's JSON for every public event kind.
func wireSeeds(t testing.TB) [][]byte {
	evs := []engine.Event{
		engine.TaskArrival(market.Task{ID: 3, Period: 2, Origin: geo.Point{X: 1.5, Y: -2}, Dest: geo.Point{X: 7, Y: 8.25}, Distance: 9.5, Valuation: 3.2}),
		engine.TaskArrival(market.Task{ID: 4, Origin: geo.Point{X: 1e-7, Y: 1e21}, Distance: 0}),
		engine.WorkerOnline(market.Worker{ID: 5, Period: 1, Loc: geo.Point{X: 4, Y: 4}, Radius: 2.5, Duration: 30}),
		engine.WorkerOffline(5),
		engine.WorkerMove(5, geo.Point{X: -3, Y: 0.125}),
		engine.AcceptDecision(3, true),
		engine.AcceptDecision(4, false),
		engine.Tick(7),
	}
	var out [][]byte
	for _, ev := range evs {
		we, err := FromEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// handSeeds are the corners of the accepted language: escaped and
// case-folded keys, values across lines and several on one line, null and
// repeated payloads, numbers at and past the edges, and syntax errors.
var handSeeds = []string{
	"",
	" \n\t\r ",
	`{"\u0074ype":"tick","per\u0069od":3}`,
	`{"TYPE":"task","Task":{"ID":1,"ORIGIN":{"X":1,"Y":2},"Distance":1,"DEST":{"x":3,"Y":4}}}`,
	"{\"type\":\"task\",\"tas\u212a\":{\"id\":2,\"distance\":1}}", // the Kelvin sign folds to k
	`{"type":"task","tas\u212A":{"id":2,"di\u017ftance":1}}`,      // the same, escaped; long s folds to s
	`{"type":"worker_online","WORKER":{"id":1,"loc":{"x":1,"y":1},"radiu\u017f":2}}`,
	`{"type":"tas\u212a","task":{"id":2,"distance":1}}`, // a type value is matched exactly
	"{\"type\":\n\"tick\",\n\"period\"\n:\n7}\n",
	`{"type":"tick","period":1} {"type":"tick","period":2}{"type":"tick","period":3}` + "\n" + `{"type":"decision","task_id":9,"accept":true}`,
	`{"type":"task","task":{"id":1,"distance":2,"origin":{"x":1,"y":1}},"task":null}`,
	`{"type":"task","task":{"id":1,"period":2},"task":{"distance":3}}`,
	`{"type":"task","task":null,"task":{"id":4}}`,
	`{"type":"task","task":{"id":1,"dest":{"x":5},"dest":null,"dest":{"y":1}}}`,
	`{"type":"task","task":{"id":1,"origin":{"x":5},"origin":null,"origin":{"y":1}}}`,
	`{"type":"worker_move","worker_id":1,"to":{"x":1},"to":{"y":2}}`,
	`{"type":"worker_move","worker_id":1,"to":{"x":1},"to":null}`,
	`{"type":"worker_online","worker":{"id":1,"loc":null,"radius":1,"radius":null}}`,
	`null`,
	`{"type":"tick","type":null,"period":null}`,
	`{"type":null}`,
	`{"type":"bogus","type":"tick"}`,
	`{}`,
	`{"type":"task","task":{"id":1,"distance":1e400}}`,
	`{"type":"task","task":{"id":1,"distance":1e-400}}`,
	`{"type":"task","task":{"id":-0,"distance":-0,"origin":{"x":-0,"y":0},"valuation":-0.0}}`,
	`{"type":"tick","period":1.0}`,
	`{"type":"tick","period":1e2}`,
	`{"type":"tick","period":9223372036854775807}`,
	`{"type":"tick","period":9223372036854775808}`,
	`{"type":"tick","period":-9223372036854775808}`,
	`{"type":"tick","period":-9223372036854775809}`,
	`{"type":"tick","period":01}`,
	`{"type":"tick","period":-}`,
	`{"type":"tick","period":1.}`,
	`{"type":"tick","period":"1"}`,
	`{"type":"decision","task_id":1,"accept":1}`,
	`{"type":"decision","task_id":1,"accept":truex}`,
	`{"type":"tick","extra":{"a":[1,2,{"b":null}],"c":"\ud83d\ude00","d":[],"e":{}},"period":1}`,
	`{"type":"tick","extra":[1,]}`,
	`{"type":"tick","extra":"\x"}`,
	`{"type":"t\u0069ck","period":2}`,
	"{\"type\":\"\xff\"}",
	`{"type":"\ud800"}`,
	`{"type":"\ud800\u0041"}`,
	`{"type":"\ud83d\ude00"}`,
	"{\"type\":\"tick\t\"}",
	`{"type":"tick",}`,
	`{"type":"tick"`,
	`{"type":"tick" "period":1}`,
	`{"type" "tick"}`,
	`{type:"tick"}`,
	`{"type":"tick"}]`,
	`{"type":"tick"}x`,
	`[{"type":"tick"}]`,
	`"tick"`,
	`123`,
	`true`,
	`nul`,
	`nullx`,
	`{"type":"task","task":[]}`,
	`{"type":"task","task":"x"}`,
	`{"type":"worker_move","worker_id":1,"to":5}`,
	`{"type":"task","task":{"id":1,"origin":null,"distance":-1}}`,
	`{"type":"worker_online","worker":{"id":1,"loc":{"x":1,"y":1},"radius":0}}`,
}

// TestScannerLongValues covers what is too big for the fuzz corpus: values
// and tokens longer than the scanner's read buffer, and nesting at and
// past encoding/json's depth limit (the event object is level 1).
func TestScannerLongValues(t *testing.T) {
	long := strings.Repeat("x", 2*scanBufSize+7)
	for _, body := range []string{
		`{"type":"tick","period":1}` + strings.Repeat(" ", 2*scanBufSize) + `{"type":"tick","period":2}`,
		`{"type":"tick","pad":"` + long + `","period":5}`,
		`{"type":"` + long + `"}`,
		`{"type":"tick","pad":[` + strings.Repeat(`1.5e3,"ab",`, scanBufSize/8) + `{}],"period":6}`,
		`{"type":"tick","pad":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`,
		`{"type":"tick","pad":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`,
		`{"type":"tick","pad":` + strings.Repeat(`{"a":`, maxNestingDepth-1) + "0" + strings.Repeat("}", maxNestingDepth-1) + `}`,
	} {
		checkAgainstJSON(t, []byte(body))
	}
}

// FuzzWireEventJSON is the differential test of the NDJSON scanner against
// encoding/json: for every input both accept the same events and refuse at
// the same value (see checkAgainstJSON).
func FuzzWireEventJSON(f *testing.F) {
	seeds := wireSeeds(f)
	for _, b := range seeds {
		f.Add(b)
	}
	f.Add(bytes.Join(seeds, []byte("\n")))
	for _, s := range handSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAgainstJSON)
}

// roadQuotedBody is a chunk shaped like the road-quoted workload's: a tick,
// then tasks, worker lifecycle events and replies.
func roadQuotedBody(t testing.TB) ([]byte, []engine.Event) {
	var evs []engine.Event
	for p := 0; p < 4; p++ {
		evs = append(evs, engine.Tick(p))
		for i := 0; i < 40; i++ {
			id := p*100 + i
			evs = append(evs,
				engine.TaskArrival(market.Task{ID: id, Period: p, Origin: geo.Point{X: 12.25 + float64(i), Y: 30.5},
					Dest: geo.Point{X: 40.125, Y: 7.75 + float64(p)}, Distance: 31.41592653589793}),
				engine.WorkerOnline(market.Worker{ID: id, Period: p, Loc: geo.Point{X: 1.0 / 3, Y: 17}, Radius: 5.5, Duration: 50}),
				engine.WorkerMove(id, geo.Point{X: 22.9, Y: -0.001}),
				engine.AcceptDecision(id-1, i%3 != 0),
			)
			if i%10 == 0 {
				evs = append(evs, engine.WorkerOffline(id-7))
			}
		}
	}
	var body []byte
	for _, ev := range evs {
		we, err := FromEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(we)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	return body, evs
}

// TestNDJSONDecodeAllocs pins the scanner at zero allocations per event in
// steady state, decoding into a reused slice as the ingest route does.
func TestNDJSONDecodeAllocs(t *testing.T) {
	body, want := roadQuotedBody(t)
	var sc eventScanner
	r := bytes.NewReader(body)
	evs := make([]engine.Event, 0, len(want))
	decode := func() {
		r.Reset(body)
		sc.reset(r)
		evs = evs[:0]
		for {
			evs = append(evs, engine.Event{})
			if err := sc.next(&evs[len(evs)-1]); err != nil {
				evs = evs[:len(evs)-1]
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	decode()
	if !sameEvents(evs, want) {
		t.Fatalf("decoded %d events, not the %d encoded", len(evs), len(want))
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Errorf("%.1f allocations per %d-event body, want 0", allocs, len(want))
	}
}

// BenchmarkNDJSONDecode compares the scanner with the encoding/json path
// it replaced on a road-quoted-shaped body; ns/op is per body.
func BenchmarkNDJSONDecode(b *testing.B) {
	body, want := roadQuotedBody(b)
	b.Run("scanner", func(b *testing.B) {
		var sc eventScanner
		r := bytes.NewReader(body)
		evs := make([]engine.Event, 0, len(want))
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			sc.reset(r)
			evs = evs[:0]
			for {
				evs = append(evs, engine.Event{})
				if err := sc.next(&evs[len(evs)-1]); err != nil {
					break
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(want)), "ns/event")
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		evs := make([]engine.Event, 0, len(want))
		for i := 0; i < b.N; i++ {
			dec := json.NewDecoder(bytes.NewReader(body))
			evs = evs[:0]
			for {
				var we WireEvent
				if dec.Decode(&we) != nil {
					break
				}
				ev, err := we.Event()
				if err != nil {
					b.Fatal(err)
				}
				evs = append(evs, ev)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(want)), "ns/event")
	})
}
