package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/wire"
)

// Codec renders a chunk of events as one ingest request body and cuts the
// unaccepted tail out of a body the server took only a prefix of.
type Codec interface {
	ContentType() string
	// Encode appends the request body for evs to dst.
	Encode(dst []byte, evs []engine.Event) ([]byte, error)
	// Tail returns the body for the events of body after the first n.
	Tail(body []byte, n int) ([]byte, error)
}

// CodecByName returns the "binary" or "json" codec.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "binary":
		return binaryCodec{}, nil
	case "json":
		return jsonCodec{}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown codec %q (want binary or json)", name)
}

// binaryCodec sends one wire batch frame per chunk.
type binaryCodec struct{}

func (binaryCodec) ContentType() string { return wire.ContentType }

func (binaryCodec) Encode(dst []byte, evs []engine.Event) ([]byte, error) {
	start := len(dst)
	var hdr [wire.HeaderLen]byte
	dst = append(dst, hdr[:]...)
	for _, ev := range evs {
		var err error
		if dst, err = wire.AppendEvent(dst, ev.Wire()); err != nil {
			return dst[:start], err
		}
	}
	wire.PutFrameHeader(dst[start:], wire.FrameBatch, dst[start+wire.HeaderLen:])
	return dst, nil
}

// Tail walks the self-delimiting events of the frame payload to the n-th
// boundary and frames what follows.
func (binaryCodec) Tail(body []byte, n int) ([]byte, error) {
	payload := body[wire.HeaderLen:]
	off := 0
	for i := 0; i < n; i++ {
		if off >= len(payload) {
			return nil, fmt.Errorf("loadgen: server accepted %d events of a %d-event frame", n, i)
		}
		l, ok := wire.EventLen(wire.Kind(payload[off]))
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown event kind %d in own frame", payload[off])
		}
		off += l
	}
	return wire.AppendFrame(nil, wire.FrameBatch, payload[off:]), nil
}

// jsonCodec sends one NDJSON line per event.
type jsonCodec struct{}

func (jsonCodec) ContentType() string { return "application/x-ndjson" }

func (jsonCodec) Encode(dst []byte, evs []engine.Event) ([]byte, error) {
	for _, ev := range evs {
		we, err := server.FromEvent(ev)
		if err != nil {
			return dst, err
		}
		line, err := json.Marshal(we)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, line...), '\n')
	}
	return dst, nil
}

func (jsonCodec) Tail(body []byte, n int) ([]byte, error) {
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("loadgen: server accepted %d events of a %d-line body", n, i)
		}
		body = body[nl+1:]
	}
	return body, nil
}
