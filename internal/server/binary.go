package server

// The binary ingest fast path: POST /v1/{tenant}/ingest with Content-Type
// application/x-spatialcrowd-frame carries length-prefixed, CRC-checked
// batch frames (internal/wire) instead of NDJSON. Each frame's events are
// decoded into pooled per-connection buffers — zero per-event allocations in
// steady state — and handed to the engine as ONE batch submission, so the
// per-event JSON-codec and channel-handoff costs that cap NDJSON ingest
// collapse into per-batch costs.
//
// The backpressure contract is unchanged: the response's Accepted count is
// the number of events durably handed to the engine (fsynced first on
// WAL-backed tenants), so a 429 client resumes by slicing its batch payload
// at the accepted prefix's byte offset and re-framing the tail — events are
// self-delimiting, no re-encode needed.

import (
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/wire"
)

// Codec indices for per-codec tenant counters and content negotiation.
const (
	codecJSON = iota
	codecBinary
	numCodecs
)

// codecName labels a codec index in metrics and TenantConfig.Codec values.
func codecName(c int) string {
	if c == codecBinary {
		return "binary"
	}
	return "json"
}

// negotiateCodec resolves a request's wire codec from its Content-Type: JSON
// media types (or none) select the JSON codec, wire.ContentType the binary
// frame codec, and anything else is an error the handlers answer with 415.
func negotiateCodec(r *http.Request) (int, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return codecJSON, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return 0, fmt.Errorf("unparseable Content-Type %q", ct)
	}
	switch mt {
	case "application/json", "application/x-ndjson":
		return codecJSON, nil
	case wire.ContentType:
		return codecBinary, nil
	}
	return 0, fmt.Errorf("unsupported Content-Type %q (want application/json, application/x-ndjson, or %s)", mt, wire.ContentType)
}

// checkCodec negotiates the request codec and enforces the tenant's Codec
// restriction, answering 415 itself on refusal.
func (s *Server) checkCodec(w http.ResponseWriter, r *http.Request, t *Tenant) (int, bool) {
	codec, err := negotiateCodec(r)
	if err != nil {
		writeJSON(w, http.StatusUnsupportedMediaType, IngestResult{Error: err.Error()})
		return 0, false
	}
	if !t.allowsCodec(codec) {
		writeJSON(w, http.StatusUnsupportedMediaType, IngestResult{
			Error: fmt.Sprintf("tenant %q accepts only the %s codec", t.name, t.codec)})
		return 0, false
	}
	return codec, true
}

// countingReader counts the bytes a decoder consumed from the request body:
// the per-codec wire-traffic gauge behind codec_ingested_bytes_total.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// binIngest is the pooled per-request state of the binary path: the frame
// reader's payload buffer plus the decoded engine event slice, both reused
// across requests so steady-state ingest allocates nothing per event.
type binIngest struct {
	fr   *wire.FrameReader
	eevs []engine.Event
}

func (s *Server) getBinIngest(body io.Reader) *binIngest {
	if st, ok := s.binPool.Get().(*binIngest); ok {
		st.fr.Reset(body)
		return st
	}
	return &binIngest{fr: wire.NewFrameReader(body, 0)}
}

func (s *Server) putBinIngest(st *binIngest) {
	st.fr.Reset(nil)
	st.eevs = st.eevs[:0]
	s.binPool.Put(st)
}

// submitBatchAdmitted runs one decoded batch through the tenant's admission
// control with the configured busy grace: a partially accepted batch gets a
// few short waits (resuming at the accepted offset; nothing is buffered
// while waiting) before ErrBusy sticks. Returns the total accepted prefix.
func (s *Server) submitBatchAdmitted(t *Tenant, evs []engine.Event) (int, error) {
	accepted, err := t.submitBatch(evs)
	if err != engine.ErrBusy || s.busyGrace <= 0 {
		return accepted, err
	}
	const step = 100 * time.Microsecond
	for waited := time.Duration(0); waited < s.busyGrace; waited += step {
		time.Sleep(step)
		n, err := t.submitBatch(evs[accepted:])
		accepted += n
		if err != engine.ErrBusy {
			return accepted, err
		}
	}
	return accepted, engine.ErrBusy
}

// validateBinaryEvents applies validateEvent — the check the JSON decoder
// makes in WireEvent.Event — to a decoded batch, so a malformed event rejects
// identically whichever wire form carried it.
func validateBinaryEvents(evs []engine.Event, base int) error {
	for i := range evs {
		if err := validateEvent(&evs[i]); err != nil {
			return fmt.Errorf("event %d: %v", base+i+1, err)
		}
	}
	return nil
}

// handleIngestBinary ingests a stream of binary batch frames, stopping at
// the first refusal; the Accepted count resumes a 429 client exactly as on
// the NDJSON path, at event (not frame) granularity.
func (s *Server) handleIngestBinary(w http.ResponseWriter, t *Tenant, body io.Reader) {
	st := s.getBinIngest(body)
	defer s.putBinIngest(st)
	accepted := 0
	defer func() { t.noteCodecTraffic(codecBinary, accepted, st.fr.PayloadBytes()) }()
	for {
		typ, payload, err := st.fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: err.Error()})
			return
		}
		if typ != wire.FrameBatch {
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: fmt.Sprintf("frame %d: unsupported frame type %d", st.fr.Frames()-1, typ)})
			return
		}
		if st.eevs, err = engine.DecodeWireEvents(payload, st.eevs[:0]); err != nil {
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: err.Error()})
			return
		}
		if err := validateBinaryEvents(st.eevs, accepted); err != nil {
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: err.Error()})
			return
		}
		n, err := s.submitBatchAdmitted(t, st.eevs)
		accepted += n
		switch err {
		case nil:
		case engine.ErrBusy:
			s.writeBusy(w, t, IngestResult{Accepted: accepted})
			return
		case errDraining, engine.ErrClosed:
			s.finishIngest(w, t, http.StatusServiceUnavailable,
				IngestResult{Accepted: accepted, Error: "draining"})
			return
		default:
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: err.Error()})
			return
		}
	}
	s.finishIngest(w, t, http.StatusOK, IngestResult{Accepted: accepted})
}
