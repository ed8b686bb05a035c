package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
)

// encoderFrame is the SSE frame as the stream wrote it through json.Encoder.
func encoderFrame(t testing.TB, d WireDecision) []byte {
	var b bytes.Buffer
	b.WriteString("data: ")
	if err := json.NewEncoder(&b).Encode(d); err != nil {
		t.Fatal(err)
	}
	b.WriteString("\n")
	return b.Bytes()
}

// TestSSEFrameMatchesEncoder pins appendFrame to json.Encoder's bytes over a
// seeded family of decisions whose floats cross both of encoding/json's
// exponent-form cut-offs, and include negative zero, subnormals, the
// extremes and a zero revenue (omitted) next to a non-zero one.
func TestSSEFrameMatchesEncoder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, 1e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 1e20, 999999999999999999999, 1e21, 1.5e21,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -1e-7, -1e21, 0.1, 1.0 / 3, 100, 123456789.125}
	rng := rand.New(rand.NewSource(29))
	float := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
	}
	integer := func() int {
		switch rng.Intn(4) {
		case 0:
			return -1
		case 1:
			return int(rng.Int63()) * (1 - 2*rng.Intn(2))
		}
		return rng.Intn(100000)
	}
	var buf []byte
	for i := 0; i < 20000; i++ {
		d := WireDecision{TaskID: integer(), Period: integer(), Cell: integer(), Price: float(),
			Quoted: rng.Intn(2) == 0, Accepted: rng.Intn(2) == 0, Served: rng.Intn(2) == 0,
			WorkerID: integer(), LatencyNS: rng.Int63() - rng.Int63()}
		switch rng.Intn(3) {
		case 0:
			d.Revenue = 0
		case 1:
			d.Revenue = negZero
		default:
			d.Revenue = float()
		}
		var err error
		if buf, err = appendFrame(buf[:0], d); err != nil {
			t.Fatalf("appendFrame(%+v): %v", d, err)
		}
		if want := encoderFrame(t, d); !bytes.Equal(buf, want) {
			t.Fatalf("frame for %+v:\n got %q\nwant %q", d, buf, want)
		}
	}
}

// TestSSEFrameRejectsNonFinite: a float JSON cannot spell is an error, as
// it is for json.Encoder, and leaves the buffer as it was.
func TestSSEFrameRejectsNonFinite(t *testing.T) {
	for _, d := range []WireDecision{
		{Price: math.NaN()},
		{Price: math.Inf(1)},
		{Price: 1, Revenue: math.Inf(-1)},
		{Price: 1, Revenue: math.NaN()},
	} {
		if err := json.NewEncoder(io.Discard).Encode(d); err == nil {
			t.Fatalf("json.Encoder accepted %+v", d)
		}
		got, err := appendFrame([]byte("kept"), d)
		if err == nil || string(got) != "kept" {
			t.Errorf("appendFrame(%+v) = %q, %v; want the buffer unchanged and an error", d, got, err)
		}
	}
}

func TestSSEFrameAllocs(t *testing.T) {
	d := WireDecision{TaskID: 123456, Period: 77, Cell: 31, Price: 1.2345678901234567, Quoted: true,
		WorkerID: 4242, Revenue: 38.75, LatencyNS: 912345}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = appendFrame(buf[:0], d) }); allocs != 0 {
		t.Errorf("%.1f allocations per frame, want 0", allocs)
	}
}

// BenchmarkSSEFrame compares appendFrame with the json.Encoder writes it
// replaced, per frame.
func BenchmarkSSEFrame(b *testing.B) {
	d := WireDecision{TaskID: 123456, Period: 77, Cell: 31, Price: 1.2345678901234567, Quoted: true,
		WorkerID: 4242, Revenue: 38.75, LatencyNS: 912345}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 512)
		for i := 0; i < b.N; i++ {
			buf, _ = appendFrame(buf[:0], d)
		}
	})
	b.Run("json-encoder", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		enc := json.NewEncoder(&w)
		for i := 0; i < b.N; i++ {
			w.Reset()
			w.WriteString("data: ")
			enc.Encode(d)
			w.WriteString("\n")
		}
	})
}

type flatPrice struct{}

func (flatPrice) Name() string { return "flat" }
func (flatPrice) Prices(ctx *core.PeriodContext) []float64 {
	return make([]float64, len(ctx.Tasks))
}
func (flatPrice) Observe(*core.PeriodContext, []float64, []bool) {}

func newStreamServer(t *testing.T) (*Server, *Tenant) {
	t.Helper()
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "c", Engine: engine.Config{
		Grid: geo.SquareGrid(100, 4), NewStrategy: func(int) core.Strategy { return flatPrice{} },
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := srv.Tenant("c")
	return srv, tn
}

func (h *quoteHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// flushWriter is a ResponseWriter that counts flushes. Its first Flush —
// the stream's headers — signals entered and then waits for gate.
type flushWriter struct {
	header  http.Header
	buf     bytes.Buffer
	flushes int
	entered chan struct{}
	gate    chan struct{}
}

func (w *flushWriter) Header() http.Header         { return w.header }
func (w *flushWriter) WriteHeader(int)             {}
func (w *flushWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *flushWriter) Flush() {
	if w.flushes++; w.flushes == 1 {
		close(w.entered)
		<-w.gate
	}
}

// TestQuoteStreamCoalesces: decisions queued while the handler was busy go
// out complete and in order, and in fewer flushes than frames — here one
// write and one flush for the whole burst.
func TestQuoteStreamCoalesces(t *testing.T) {
	srv, tn := newStreamServer(t)
	fw := &flushWriter{header: http.Header{}, entered: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/v1/c/quotes/stream", nil))
	}()
	<-fw.entered // subscribed; the headers' flush holds the handler

	const n = subscriberBuffer - 1
	var want []byte
	for i := 0; i < n; i++ {
		d := engine.Decision{TaskID: i, Period: i / 10, Cell: i % 7, Price: 1.5 + float64(i)/7,
			Quoted: i%2 == 0, Accepted: i%3 == 0, Served: i%3 == 0, WorkerID: i - 1, Latency: time.Duration(i) * time.Microsecond}
		if d.Served {
			d.Revenue = 2 * d.Price
		}
		tn.hub.Publish(d)
		want = append(want, encoderFrame(t, wireDecision(d))...)
	}
	close(fw.gate)
	if err := srv.Drain(); err != nil { // closes the queue behind the burst
		t.Fatal(err)
	}
	<-done
	if !bytes.Equal(fw.buf.Bytes(), want) {
		t.Fatalf("stream carried %d bytes, want the %d bytes of %d frames in order", fw.buf.Len(), len(want), n)
	}
	if frameFlushes := fw.flushes - 1; frameFlushes >= n {
		t.Errorf("%d flushes for %d frames, want fewer", frameFlushes, n)
	} else {
		t.Logf("%d frames in %d flush(es)", n, frameFlushes)
	}
	if tn.hub.Dropped() != 0 {
		t.Errorf("hub dropped %d frames", tn.hub.Dropped())
	}
}

// TestQuoteStreamUnencodableEnds: a decision JSON cannot encode ends the
// stream after the frames queued before it.
func TestQuoteStreamUnencodableEnds(t *testing.T) {
	srv, tn := newStreamServer(t)
	defer srv.Drain()
	fw := &flushWriter{header: http.Header{}, entered: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, "/v1/c/quotes/stream", nil))
	}()
	<-fw.entered
	good := engine.Decision{TaskID: 1, Price: 2}
	tn.hub.Publish(good)
	tn.hub.Publish(engine.Decision{TaskID: 2, Price: math.NaN()})
	tn.hub.Publish(engine.Decision{TaskID: 3, Price: 2})
	close(fw.gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end at the unencodable decision")
	}
	if want := encoderFrame(t, wireDecision(good)); !bytes.Equal(fw.buf.Bytes(), want) {
		t.Errorf("stream carried %q, want only %q", fw.buf.Bytes(), want)
	}
	if n := tn.hub.subscribers(); n != 0 {
		t.Errorf("hub holds %d subscribers after the stream ended", n)
	}
}

// TestQuoteStreamStalledReader: a client that subscribes and then stops
// reading is cut off once a write has waited sseWriteTimeout; its handler
// returns, the hub forgets it, and the listener shuts down promptly. Both
// ends' socket buffers are shrunk so that the stream fills them fast.
func TestQuoteStreamStalledReader(t *testing.T) {
	defer func(d time.Duration) { sseWriteTimeout = d }(sseWriteTimeout)
	sseWriteTimeout = 200 * time.Millisecond

	srv, tn := newStreamServer(t)
	defer srv.Drain()
	hs := srv.HTTPServer()
	returned := make(chan struct{})
	hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.URL.Path == "/v1/c/quotes/stream" {
			close(returned)
		}
	})
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			c.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() { hs.Close(); <-served }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := io.WriteString(conn, "GET /v1/c/quotes/stream HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); tn.hub.subscribers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the stream never subscribed")
		}
	}

	// Publish until the handler gives up; the client never reads a byte.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tn.hub.Publish(engine.Decision{TaskID: i, Price: 1.25})
			if i%256 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	select {
	case <-returned:
	case <-time.After(20 * sseWriteTimeout):
		close(stop)
		wg.Wait()
		t.Fatal("the handler of a stalled stream did not return")
	}
	close(stop)
	wg.Wait()
	if n := tn.hub.subscribers(); n != 0 {
		t.Errorf("hub holds %d subscribers after the stalled stream was cut off", n)
	}
	if tn.hub.Dropped() == 0 {
		t.Error("the stream never fell behind: the test did not stall it")
	}

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}
