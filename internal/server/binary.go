package server

// The binary ingest codec: POST /v1/{tenant}/ingest with Content-Type
// application/x-spatialcrowd-frame carries length-prefixed, CRC-checked
// batch frames (internal/wire) instead of NDJSON. Each frame's events are
// decoded into the pooled per-request slice — zero per-event allocations in
// steady state — and submitted as one chunk, exactly as the NDJSON decoder's
// chunks are (server.go); what the codec saves is the JSON decode.
//
// The backpressure contract is the shared one: the response's Accepted
// count is the number of events durably handed to the engine (fsynced first
// on WAL-backed tenants), so a 429 client resumes by slicing its batch
// payload at the accepted prefix's byte offset and re-framing the tail —
// events are self-delimiting, no re-encode needed.

import (
	"fmt"
	"io"
	"mime"
	"net/http"

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

// ingestState is the pooled per-request state of the ingest routes: the
// decoded engine event slice both codecs fill, the binary codec's frame
// reader with its payload buffer, and the NDJSON scanner with its read
// buffer. All are reused across requests so steady-state ingest allocates
// nothing per event.
type ingestState struct {
	evs []engine.Event
	fr  *wire.FrameReader
	js  eventScanner
}

func (s *Server) getIngest() *ingestState {
	if st, ok := s.ingestPool.Get().(*ingestState); ok {
		return st
	}
	return &ingestState{fr: wire.NewFrameReader(nil, 0)}
}

func (s *Server) putIngest(st *ingestState) {
	st.fr.Reset(nil)
	st.js.r = nil
	if len(st.js.buf) > scanBufSize {
		st.js.buf = nil // one oversized token must not pin its buffer
	}
	st.evs = st.evs[:0]
	s.ingestPool.Put(st)
}

// validPrefix applies validateEvent — the check the JSON decoder makes in
// WireEvent.Event — to a decoded batch, so a malformed event rejects
// identically whichever wire form carried it. It returns the length of the
// valid prefix and the error that ended it.
func validPrefix(evs []engine.Event) (int, error) {
	for i := range evs {
		if err := validateEvent(&evs[i]); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// ingestBinary ingests a stream of binary batch frames, stopping at the
// first refusal. A frame's events are one chunk; a frame that fails its CRC
// or length check is refused whole, while an event inside a sound frame that
// does not decode or validate is refused like a bad NDJSON line — after the
// events before it were submitted — so Accepted resumes a client at event
// (not frame) granularity on every refusal.
func (s *Server) ingestBinary(w http.ResponseWriter, t *Tenant, body io.Reader) {
	st := s.getIngest()
	defer s.putIngest(st)
	st.fr.Reset(body)
	accepted := 0
	defer func() { t.noteCodecTraffic(codecBinary, accepted, st.fr.PayloadBytes()) }()
	for {
		typ, payload, err := st.fr.Next()
		if err == io.EOF {
			break
		}
		if err == nil && typ != wire.FrameBatch {
			err = fmt.Errorf("frame %d: unsupported frame type %d", st.fr.Frames()-1, typ)
		}
		if err != nil {
			s.finishIngest(w, t, http.StatusBadRequest,
				IngestResult{Accepted: accepted, Error: err.Error()})
			return
		}
		st.evs, err = engine.DecodeWireEvents(payload, st.evs[:0])
		// Validate what decoded even when the decode stopped early: an
		// invalid event ahead of the undecodable one is the earlier refusal.
		if n, verr := validPrefix(st.evs); verr != nil {
			st.evs, err = st.evs[:n], verr
		}
		if !s.submitChunk(w, t, st.evs, &accepted) {
			return
		}
		if err != nil {
			s.refuse(w, t, accepted, err)
			return
		}
	}
	s.finishIngest(w, t, http.StatusOK, IngestResult{Accepted: accepted})
}
