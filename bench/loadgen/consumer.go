package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialcrowd/internal/engine"
)

// Sample is one decision as the consumer saw it.
type Sample struct {
	At       int64 // receipt time, nanoseconds since the consumer's epoch
	TaskID   int32
	Period   int32 // window that priced the task
	Quoted   bool
	Accepted bool
	Served   bool
	// Recovered marks a decision the quote stream dropped and the consumer
	// fetched afterwards by task ID.
	Recovered bool
}

// Consumer stamps every decision on receipt: from the engine's OnDecision
// callback in process, or from the server's SSE quote stream over a socket.
// It keeps raw samples; percentiles are taken from them afterwards.
type Consumer struct {
	epoch    time.Time
	mu       sync.Mutex // OnDecision runs on every shard goroutine
	samples  []Sample
	quoted   bool   // the stream owes a price and then a result per task
	priced   []bool // per task: its price has been seen
	answered []bool // per task: a non-quote decision has been seen
	received atomic.Int64
	done     atomic.Bool
	eof      chan struct{} // closed when the SSE stream ends
	err      error         // why it ended, nil on a clean close
	cancel   context.CancelFunc
}

// NewConsumer returns a consumer for a stream of the given number of tasks
// (IDs 0..tasks-1), quoted or auto-decided.
func NewConsumer(tasks int, quoted bool) *Consumer {
	// Room for three decisions a task, so appending rarely reallocates
	// mid-pass.
	return &Consumer{epoch: time.Now(), samples: make([]Sample, 0, 3*tasks+16), quoted: quoted,
		priced: make([]bool, tasks), answered: make([]bool, tasks), eof: make(chan struct{})}
}

// Epoch is the instant sample times count from.
func (c *Consumer) Epoch() time.Time { return c.epoch }

// Received reports how many owed decisions have arrived so far. Every task
// is owed its price (the quote, or in auto-decide mode the one decision that
// carries price and assignment together) and, in quoted mode, the first
// decision after it: the result of the requester's reply or the lapse of the
// quote. Superseding re-assignments come on top and are not counted, so the
// total a stream owes is known from the stream alone.
func (c *Consumer) Received() int64 { return c.received.Load() }

// add files one sample; the caller holds no lock.
func (c *Consumer) add(s Sample) {
	seen := &c.answered
	if s.Quoted || !c.quoted {
		seen = &c.priced
	}
	c.mu.Lock()
	c.samples = append(c.samples, s)
	owed := !(*seen)[s.TaskID]
	(*seen)[s.TaskID] = true
	c.mu.Unlock()
	if owed {
		c.received.Add(1)
	}
}

// Recover fetches, by task ID over the long-poll endpoint, the decisions
// the quote stream owed but did not deliver: the stream is lossy by design
// (a subscriber that falls behind its bounded queue loses frames) and the
// per-task endpoint is the service's reliable path. It runs after the pass,
// on the then idle ingest connection, and stamps what it finds on receipt,
// so a recovered decision is a very slow one, not a lost one. It returns how
// many owed decisions it recovered.
func (c *Consumer) Recover(client *http.Client, quotesURL string) (int, error) {
	recovered := 0
	for id := range c.priced {
		c.mu.Lock()
		needPrice, needAnswer := !c.priced[id], c.quoted && !c.answered[id]
		c.mu.Unlock()
		if !needPrice && !needAnswer {
			continue
		}
		resp, err := client.Get(quotesURL + "/" + strconv.Itoa(id) + "?timeout_ms=0")
		if err != nil {
			return recovered, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return recovered, err
		}
		if resp.StatusCode != http.StatusOK {
			continue // gone from the server's cache too: a failure
		}
		s, err := parseDecision(body)
		if err != nil {
			return recovered, err
		}
		s.At, s.Recovered = int64(time.Since(c.epoch)), true
		before := c.Received()
		if needPrice && !s.Quoted && c.quoted {
			// The result carries the price the lost quote offered.
			q := s
			q.Quoted, q.Accepted, q.Served = true, false, false
			c.add(q)
		}
		c.add(s)
		recovered += int(c.Received() - before)
	}
	return recovered, nil
}

// Done reports whether the SSE stream has ended.
func (c *Consumer) Done() bool { return c.done.Load() }

// OnDecision is the in-process receiver (engine.Config.OnDecision).
func (c *Consumer) OnDecision(d engine.Decision) {
	c.add(Sample{At: int64(time.Since(c.epoch)), TaskID: int32(d.TaskID), Period: int32(d.Period),
		Quoted: d.Quoted, Accepted: d.Accepted, Served: d.Served})
}

// Samples returns what was received. Call it only after the pass has ended.
func (c *Consumer) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// Subscribe opens the SSE quote stream at url on its own connection and
// returns once the server has registered the subscription, so no decision
// caused by a later request can be missed. Frames are consumed on a
// goroutine until the server closes the stream or Close is called.
func (c *Consumer) Subscribe(client *http.Client, url string) error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("loadgen: quote stream answered %d", resp.StatusCode)
	}
	c.cancel = cancel
	go func() {
		defer close(c.eof)
		defer c.done.Store(true)
		defer resp.Body.Close()
		r := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				if ctx.Err() == nil && !errors.Is(err, io.EOF) {
					c.err = err
				}
				return
			}
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			s, err := parseDecision(line[len("data: "):])
			if err != nil {
				c.err = err
				return
			}
			if int(s.TaskID) >= len(c.answered) || s.TaskID < 0 {
				c.err = fmt.Errorf("loadgen: decision for unknown task %d", s.TaskID)
				return
			}
			s.At = int64(time.Since(c.epoch))
			c.add(s)
		}
	}()
	return nil
}

// WaitEOF blocks until the server ends the quote stream (it does when the
// tenant drains) or the timeout passes.
func (c *Consumer) WaitEOF(timeout time.Duration) error {
	select {
	case <-c.eof:
		return c.err
	case <-time.After(timeout):
		return fmt.Errorf("loadgen: quote stream still open after %v", timeout)
	}
}

// WaitFor blocks until n owed decisions have arrived and reports true, or
// reports false once the stream has ended or has delivered nothing new for
// the idle period: a backlog still draining keeps the wait alive, a stream
// that has gone quiet with decisions missing has dropped them.
func (c *Consumer) WaitFor(n int, idle time.Duration) bool {
	last, since := c.Received(), time.Now()
	for last < int64(n) {
		if c.Done() {
			return c.Received() >= int64(n)
		}
		time.Sleep(50 * time.Microsecond)
		if got := c.Received(); got != last {
			last, since = got, time.Now()
		} else if time.Since(since) > idle {
			return false
		}
	}
	return true
}

// Close abandons the SSE stream from the client side and waits for the
// reader to stop. A no-op for an in-process consumer.
func (c *Consumer) Close() {
	if c.cancel != nil {
		c.cancel()
		<-c.eof
	}
}

// parseDecision reads the fields the benchmark needs out of one
// server.WireDecision JSON object. A reflection-based decode costs the
// consumer — which shares two cores with the server — several times what
// this scan does, and the consumer must not be the bottleneck it measures.
func parseDecision(b []byte) (Sample, error) {
	var s Sample
	id, ok1 := intField(b, `"task_id":`)
	period, ok2 := intField(b, `"period":`)
	quoted, ok3 := boolField(b, `"quoted":`)
	accepted, ok4 := boolField(b, `"accepted":`)
	served, ok5 := boolField(b, `"served":`)
	if !(ok1 && ok2 && ok3 && ok4 && ok5) {
		return s, fmt.Errorf("loadgen: malformed decision frame %.120q", b)
	}
	s.TaskID, s.Period, s.Quoted, s.Accepted, s.Served = int32(id), int32(period), quoted, accepted, served
	return s, nil
}

func intField(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(b) && (b[j] == '-' || (b[j] >= '0' && b[j] <= '9')) {
		j++
	}
	v, err := strconv.Atoi(string(b[i:j]))
	return v, err == nil
}

func boolField(b []byte, key string) (bool, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return false, false
	}
	rest := b[i+len(key):]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		return false, true
	}
	return false, false
}
