package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"
)

// sseWriteTimeout bounds each write of a quote stream. A subscriber whose
// connection takes no bytes for this long is cut off and unsubscribed, so
// a client that stops reading cannot hold its handler, or
// http.Server.Shutdown, forever. It is a variable only so that tests can
// shorten it.
var sseWriteTimeout = 10 * time.Second

var errUnencodable = errors.New("decision has a price or revenue JSON cannot encode")

// handleQuoteStream serves the tenant's full decision stream as SSE. Each
// wake-up takes the decision that arrived and every decision already
// queued behind it (at most the subscriber's queue), and sends them as one
// write and one flush. A consumer that falls behind its bounded queue loses
// frames (counted in the quote_stream_dropped metric) rather than growing
// server memory; one that takes no bytes for sseWriteTimeout is cut off.
func (s *Server) handleQuoteStream(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	if _, canFlush := w.(http.Flusher); !canFlush {
		writeJSON(w, http.StatusNotImplemented, IngestResult{Error: "streaming unsupported by this connection"})
		return
	}
	sub := t.hub.Subscribe()
	if sub == nil {
		writeJSON(w, http.StatusServiceUnavailable, IngestResult{Error: "draining"})
		return
	}
	defer t.hub.Unsubscribe(sub)
	rc := http.NewResponseController(w)
	// The connection may serve another request after the stream ends; it
	// must not inherit the deadline.
	defer rc.SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if writeFrames(w, rc, nil) != nil {
		return
	}
	var buf []byte
	for {
		select {
		case d, open := <-sub.ch:
			if !open {
				return
			}
			var err error
			buf, err = appendFrame(buf[:0], wireDecision(d))
			for queued := len(sub.ch); queued > 0 && err == nil; queued-- {
				if d, open = <-sub.ch; !open {
					break
				}
				buf, err = appendFrame(buf, wireDecision(d))
			}
			// A decision that cannot be encoded ends the stream after the
			// frames before it, as the closed queue does.
			if writeFrames(w, rc, buf) != nil || err != nil || !open {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeFrames sends buf in one write and flushes it, under a fresh write
// deadline where the connection supports one.
func writeFrames(w http.ResponseWriter, rc *http.ResponseController, buf []byte) error {
	if err := rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return rc.Flush()
}

// appendFrame appends d's SSE frame to dst: "data: ", the JSON that
// json.Encoder writes for d (newline included, "revenue" omitted when
// zero), and the blank line that ends the event — byte for byte what the
// stream sent when it was written through json.Encoder. A NaN or infinite
// float, which JSON cannot spell, is an error and leaves dst as it was.
func appendFrame(dst []byte, d WireDecision) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `data: {"task_id":`...)
	dst = strconv.AppendInt(dst, int64(d.TaskID), 10)
	dst = append(dst, `,"period":`...)
	dst = strconv.AppendInt(dst, int64(d.Period), 10)
	dst = append(dst, `,"cell":`...)
	dst = strconv.AppendInt(dst, int64(d.Cell), 10)
	dst = append(dst, `,"price":`...)
	dst, ok := appendJSONFloat(dst, d.Price)
	dst = append(dst, `,"quoted":`...)
	dst = strconv.AppendBool(dst, d.Quoted)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendBool(dst, d.Accepted)
	dst = append(dst, `,"served":`...)
	dst = strconv.AppendBool(dst, d.Served)
	dst = append(dst, `,"worker_id":`...)
	dst = strconv.AppendInt(dst, int64(d.WorkerID), 10)
	if d.Revenue != 0 {
		var okRevenue bool
		dst = append(dst, `,"revenue":`...)
		dst, okRevenue = appendJSONFloat(dst, d.Revenue)
		ok = ok && okRevenue
	}
	dst = append(dst, `,"latency_ns":`...)
	dst = strconv.AppendInt(dst, d.LatencyNS, 10)
	dst = append(dst, "}\n\n"...)
	if !ok {
		return dst[:start], errUnencodable
	}
	return dst, nil
}

// appendJSONFloat formats f as encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped. It reports false for NaN and ±Inf.
func appendJSONFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}
