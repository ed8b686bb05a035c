package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/server"
)

// MaxRetries caps how often one chunk is re-sent after a busy answer before
// its remaining events count as failed.
const MaxRetries = 2000

// EngineTarget hands each chunk to an in-process engine in one SubmitBatch.
type EngineTarget struct {
	Engine *engine.Engine
	// Events materializes chunk c (gen.Stream.Events).
	Events func(c int, dst []engine.Event) []engine.Event
	buf    []engine.Event
}

// Send implements Target. SubmitBatch blocks through back-pressure itself,
// so an in-process chunk is never partially accepted.
func (t *EngineTarget) Send(c int, rep *Report) error {
	t.buf = t.Events(c, t.buf[:0])
	rep.Posts++
	if err := t.Engine.SubmitBatch(t.buf); err != nil {
		rep.Failed += len(t.buf)
		return err
	}
	rep.Accepted += len(t.buf)
	return nil
}

// HTTPTarget posts each chunk's pre-encoded body to an ingest endpoint over
// one keep-alive connection, resuming after a 429 from the accepted count.
type HTTPTarget struct {
	Client *http.Client
	URL    string // .../v1/{tenant}/ingest
	Codec  Codec
	Bodies [][]byte
	Counts []int // events per body
}

// Send implements Target.
func (t *HTTPTarget) Send(c int, rep *Report) error {
	body, left := t.Bodies[c], t.Counts[c]
	for try := 0; ; try++ {
		req, err := http.NewRequest(http.MethodPost, t.URL, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", t.Codec.ContentType())
		resp, err := t.Client.Do(req)
		if err != nil {
			rep.Failed += left
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rep.Failed += left
			return err
		}
		rep.Posts++
		var res server.IngestResult
		if err := json.Unmarshal(raw, &res); err != nil {
			rep.BadPosts++
			rep.Failed += left
			return fmt.Errorf("status %d with undecodable body %.100q", resp.StatusCode, raw)
		}
		rep.Accepted += res.Accepted
		left -= res.Accepted
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			if left != 0 {
				rep.Failed += left
				return fmt.Errorf("status %d but %d events unaccounted for", resp.StatusCode, left)
			}
			return nil
		case http.StatusTooManyRequests:
			rep.Busy++
			rep.Rejected += left
			if try >= MaxRetries {
				rep.Failed += left
				return fmt.Errorf("gave up after %d busy answers with %d events left", try, left)
			}
			if body, err = t.Codec.Tail(body, res.Accepted); err != nil {
				rep.Failed += left
				return err
			}
			// The later chunks keep their due times: only this one waits.
			time.Sleep(time.Duration(res.RetryAfterMS * float64(time.Millisecond)))
		default:
			rep.BadPosts++
			rep.Failed += left
			return fmt.Errorf("status %d: %s", resp.StatusCode, res.Error)
		}
	}
}
