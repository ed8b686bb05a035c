// Package loadgen is the benchmark's load generator: one sending goroutine
// that delivers a stream chunk by chunk, closed loop (as fast as the target
// acknowledges) or open loop (every chunk has a due time fixed beforehand,
// whatever the target does), and one consumer that stamps every decision on
// receipt. Latencies are worked out afterwards, from the time a chunk was
// due — not from when it was actually sent — so a stalled target is charged
// for the wait it imposes on later chunks; how late the generator itself ran
// is reported beside them.
package loadgen

import (
	"fmt"
	"time"
)

// Target is where chunks go: an in-process engine or an ingest endpoint.
type Target interface {
	// Send delivers chunk c in full, resuming after partial acceptance, and
	// folds what it took into rep.
	Send(c int, rep *Report) error
}

// Plan describes one pass over a stream.
type Plan struct {
	Chunks int
	// Due is the open-loop schedule: chunk c is due Due[c] after the start.
	// Nil selects the closed loop.
	Due []time.Duration
	// Credit, when set, bounds the closed loop by the consumer as well as by
	// the target's acknowledgements: chunk c is held back while the
	// decisions owed for the chunks sent so far exceed those the consumer has
	// received by more than Credit. It keeps a bounded subscriber queue from
	// overflowing when the sender can outrun decision delivery. Ignored in
	// the open loop, which by definition does not wait for anybody.
	Credit   int
	Owed     func(c int) int // decisions chunk c makes the target owe
	Consumer *Consumer
}

// Report is what one pass of the sender observed. Times are nanoseconds
// since Start.
type Report struct {
	Start    time.Time
	Due      []int64 // intended send time per chunk (equals Sent in the closed loop)
	Sent     []int64 // when Send was called
	Acked    []int64 // when Send returned
	Held     []int64 // how long before Sent the chunk was ready but waiting for credit
	Posts    int     // requests made, retries included
	Busy     int     // 429 / ErrBusy answers
	Rejected int     // events a busy answer turned away (each is retried)
	Accepted int     // events the target took
	Failed   int     // events given up on after the retry cap
	BadPosts int     // answers that were neither 2xx nor 429
}

// Late reports, per chunk, how long the generator itself delayed it: the
// time from when the chunk could first have been sent — it was due and the
// previous chunk had been acknowledged — to when it was. A single connection
// sends one chunk at a time, so waiting for the target's acknowledgement is
// the target's doing and already counts in every latency measured from the
// due time; what is left is the generator's own timer and scheduling delay.
func (r *Report) Late() []int64 {
	out := make([]int64, len(r.Due))
	for i := range out {
		ready := r.Due[i]
		if i > 0 && r.Acked[i-1] > ready {
			ready = r.Acked[i-1]
		}
		out[i] = r.Sent[i] - ready
	}
	return out
}

// Backlog reports, per chunk, how long after its due time it was sent,
// whoever's doing that was.
func (r *Report) Backlog() []int64 {
	out := make([]int64, len(r.Due))
	for i := range out {
		out[i] = r.Sent[i] - r.Due[i]
	}
	return out
}

// Run sends every chunk of the plan to the target and returns once the last
// one is acknowledged. It does not wait for decisions.
func Run(p Plan, t Target) (*Report, error) {
	rep := &Report{
		Due:   make([]int64, p.Chunks),
		Sent:  make([]int64, p.Chunks),
		Acked: make([]int64, p.Chunks),
		Held:  make([]int64, p.Chunks),
	}
	expected := 0
	rep.Start = time.Now()
	for c := 0; c < p.Chunks; c++ {
		if p.Due != nil {
			rep.Due[c] = int64(p.Due[c])
			waitUntil(rep.Start.Add(p.Due[c]))
		} else if p.Credit > 0 {
			for held := time.Now(); expected-int(p.Consumer.Received()) > p.Credit; rep.Held[c] = int64(time.Since(held)) {
				if p.Consumer.Done() {
					return rep, fmt.Errorf("loadgen: decision stream ended with %d decisions outstanding", expected-int(p.Consumer.Received()))
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		rep.Sent[c] = int64(time.Since(rep.Start))
		if p.Due == nil {
			rep.Due[c] = rep.Sent[c]
		}
		if err := t.Send(c, rep); err != nil {
			return rep, fmt.Errorf("loadgen: chunk %d: %w", c, err)
		}
		rep.Acked[c] = int64(time.Since(rep.Start))
		if p.Owed != nil {
			expected += p.Owed(c)
		}
	}
	return rep, nil
}

// waitUntil sleeps to just short of the deadline (sleep, per platform) and
// spins through the rest. The spin must not yield: a goroutine looping
// through runtime.Gosched keeps its processor's run queue non-empty, the
// scheduler then never polls the network, and on a two-core box the server's
// socket goroutines stall for milliseconds behind the generator.
func waitUntil(t time.Time) {
	const spin = 120 * time.Microsecond
	for d := time.Until(t) - spin; d > 0; d = time.Until(t) - spin {
		sleep(d)
	}
	for time.Now().Before(t) {
	}
}
