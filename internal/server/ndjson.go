package server

// The NDJSON ingest decoder: a single-pass scanner that reads a body of
// JSON-encoded WireEvents straight into engine events, with no reflection
// and no per-event allocation. It accepts exactly the documents
// encoding/json's Decoder accepts into a WireEvent followed by
// WireEvent.Event, and decodes them to the same events:
//
//   - values separated by any JSON whitespace (or by nothing after an
//     object), spanning lines or sharing one, of any length;
//   - keys matched as encoding/json matches them: the exact field name, or
//     else the name under Unicode case folding (bytes.EqualFold), after
//     escapes are decoded; unknown keys and their values are skipped, a
//     repeated key decodes again onto what the earlier one left;
//   - null leaves a number, string, bool or point field as it was and
//     clears a "task", "worker", "dest" or "to" payload, as it does the
//     pointer fields of WireEvent;
//   - a value of the wrong JSON type, an integer field given a fraction,
//     an exponent or a number out of range, and a float out of range are
//     errors, as encoding/json's UnmarshalTypeError is;
//   - strings decode escapes, surrogate pairs and invalid UTF-8 the way
//     encoding/json does, and nesting is capped at its depth.
//
// Only the wording of syntax and type errors differs. The semantic checks
// — required payloads, unknown types, validateEvent — are WireEvent.Event's
// own code (finish), so their messages are the same.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/geo"
	"spatialcrowd/internal/market"
)

const (
	// scanBufSize is the scanner's read buffer. A single string or number
	// longer than that grows it; the ingest pool drops a grown buffer.
	scanBufSize = 32 << 10
	// maxNestingDepth is encoding/json's nesting limit, kept so that both
	// refuse the same documents.
	maxNestingDepth = 10000
)

// The keys of each object WireEvent is made of, as its JSON tags spell them.
var (
	eventKeys  = []string{"type", "task", "worker", "worker_id", "to", "task_id", "accept", "period"}
	taskKeys   = []string{"id", "period", "origin", "dest", "distance", "valuation"}
	workerKeys = []string{"id", "period", "loc", "radius", "duration"}
	pointKeys  = []string{"x", "y"}
)

var errTooDeep = errors.New("exceeded max depth")

// eventScanner decodes one request body. buf[pos:end] holds bytes read
// from r and not yet consumed; a token (string or number) is always
// contiguous in buf, because refill keeps the unconsumed bytes.
type eventScanner struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	rerr error  // what ended the body, reported once buf is drained
	n    int64  // body bytes read
	str  []byte // the last string unquote decoded
	typ  []byte // the "type" of the event being decoded
}

// reset points the scanner at a new body, keeping its buffers.
func (s *eventScanner) reset(r io.Reader) {
	if s.buf == nil {
		s.buf = make([]byte, scanBufSize)
	}
	s.r, s.pos, s.end, s.rerr, s.n = r, 0, 0, nil, 0
}

// refill reads more of the body behind the unconsumed bytes, which move to
// the front of buf first; buf doubles when they already fill it. It
// reports false once the body has ended (rerr says how) and nothing more
// arrived; callers loop until what they need is buffered.
func (s *eventScanner) refill() bool {
	if s.rerr != nil {
		return false
	}
	s.end = copy(s.buf, s.buf[s.pos:s.end])
	s.pos = 0
	if s.end == len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	s.n += int64(n)
	if err != nil {
		s.rerr = err
		return n > 0
	}
	return true
}

// endErr is the error of a body that ended inside a value.
func (s *eventScanner) endErr() error {
	if s.rerr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.rerr
}

// peek skips whitespace and returns the next byte without consuming it.
func (s *eventScanner) peek() (byte, error) {
	if s.pos < s.end && s.buf[s.pos] > ' ' {
		return s.buf[s.pos], nil
	}
	return s.peekSlow()
}

func (s *eventScanner) peekSlow() (byte, error) {
	for {
		for s.pos < s.end {
			c := s.buf[s.pos]
			if c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return c, nil
			}
			s.pos++
		}
		if !s.refill() {
			return 0, s.endErr()
		}
	}
}

func syntaxError(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s", c, context)
}

// mismatch is the error for a value that starts with c where a value of
// type want belongs: a type error if c starts a JSON value, else a syntax
// error.
func mismatch(c byte, want string) error {
	var got string
	switch {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return syntaxError(c, "looking for beginning of value")
	}
	return fmt.Errorf("cannot decode a JSON %s into %s", got, want)
}

// next decodes the next value of the body into *ev, which the caller has
// zeroed. It returns io.EOF when only whitespace is left.
func (s *eventScanner) next(ev *engine.Event) error {
	c, err := s.peek()
	if err != nil {
		if s.rerr == io.EOF {
			return io.EOF
		}
		return err
	}
	s.typ = s.typ[:0]
	var has payloads
	switch c {
	case '{':
		s.pos++
	case 'n':
		// null decodes to a WireEvent with no type.
		if err := s.literal("null"); err != nil {
			return err
		}
		return finish(ev, s.typ, has)
	default:
		return mismatch(c, "an event")
	}
	for first := true; ; first = false {
		name, more, err := s.key(first, eventKeys)
		if err != nil {
			return err
		}
		if !more {
			return finish(ev, s.typ, has)
		}
		switch name {
		case "type":
			err = s.stringValue(&s.typ)
		case "task":
			if has.task, err = s.openObject("a task"); err == nil {
				if has.task {
					err = s.task(&ev.Task)
				} else {
					ev.Task = market.Task{}
				}
			}
		case "worker":
			if has.worker, err = s.openObject("a worker"); err == nil {
				if has.worker {
					err = s.worker(&ev.Worker)
				} else {
					ev.Worker = market.Worker{}
				}
			}
		case "worker_id":
			err = s.intValue(&ev.WorkerID)
		case "to":
			if has.to, err = s.openObject("a point"); err == nil {
				if has.to {
					err = s.point(&ev.Loc, 2)
				} else {
					ev.Loc = geo.Point{}
				}
			}
		case "task_id":
			err = s.intValue(&ev.TaskID)
		case "accept":
			err = s.boolValue(&ev.Accept)
		case "period":
			err = s.intValue(&ev.Period)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// task decodes the fields of a "task" object whose brace is consumed.
func (s *eventScanner) task(t *market.Task) error {
	for first := true; ; first = false {
		name, more, err := s.key(first, taskKeys)
		if err != nil || !more {
			return err
		}
		switch name {
		case "id":
			err = s.intValue(&t.ID)
		case "period":
			err = s.intValue(&t.Period)
		case "origin":
			var open bool
			if open, err = s.openObject("a point"); open {
				err = s.point(&t.Origin, 3)
			}
		case "dest":
			var open bool
			if open, err = s.openObject("a point"); err == nil {
				if open {
					err = s.point(&t.Dest, 3)
				} else {
					t.Dest = geo.Point{}
				}
			}
		case "distance":
			err = s.floatValue(&t.Distance)
		case "valuation":
			err = s.floatValue(&t.Valuation)
		default:
			err = s.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

// worker decodes the fields of a "worker" object whose brace is consumed.
func (s *eventScanner) worker(w *market.Worker) error {
	for first := true; ; first = false {
		name, more, err := s.key(first, workerKeys)
		if err != nil || !more {
			return err
		}
		switch name {
		case "id":
			err = s.intValue(&w.ID)
		case "period":
			err = s.intValue(&w.Period)
		case "loc":
			var open bool
			if open, err = s.openObject("a point"); open {
				err = s.point(&w.Loc, 3)
			}
		case "radius":
			err = s.floatValue(&w.Radius)
		case "duration":
			err = s.intValue(&w.Duration)
		default:
			err = s.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

// point decodes the fields of a point object whose brace is consumed;
// depth is its nesting depth.
func (s *eventScanner) point(p *geo.Point, depth int) error {
	for first := true; ; first = false {
		name, more, err := s.key(first, pointKeys)
		if err != nil || !more {
			return err
		}
		switch name {
		case "x":
			err = s.floatValue(&p.X)
		case "y":
			err = s.floatValue(&p.Y)
		default:
			err = s.skip(depth)
		}
		if err != nil {
			return err
		}
	}
}

// key reads up to the next key of the object being decoded — first is set
// right after its opening brace — and consumes the key and its colon,
// returning the field of names it sets ("" for none; see fieldName). At
// the closing brace it consumes that and reports more == false.
func (s *eventScanner) key(first bool, names []string) (name string, more bool, err error) {
	c, err := s.peek()
	if err != nil {
		return "", false, err
	}
	switch {
	case c == '}':
		s.pos++
		return "", false, nil
	case !first && c == ',':
		s.pos++
		if c, err = s.peek(); err != nil {
			return "", false, err
		}
	case !first:
		return "", false, syntaxError(c, "after object key:value pair")
	}
	if c != '"' {
		return "", false, syntaxError(c, "looking for beginning of object key string")
	}
	key, err := s.stringToken()
	if err != nil {
		return "", false, err
	}
	// Resolve the key before peeking on: a refill moves what key points at.
	name = fieldName(key, names)
	if c, err = s.peek(); err != nil {
		return "", false, err
	}
	if c != ':' {
		return "", false, syntaxError(c, "after object key")
	}
	s.pos++
	return name, true, nil
}

// fieldName resolves an object key as encoding/json does: the field of
// that exact name, or else the field whose name equals it under Unicode
// case folding. It returns "" for a key no field has.
func fieldName(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// openObject starts a value that decodes into a struct: it consumes the
// opening brace and reports true, or consumes a null and reports false.
func (s *eventScanner) openObject(want string) (bool, error) {
	c, err := s.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case '{':
		s.pos++
		return true, nil
	case 'n':
		return false, s.literal("null")
	}
	return false, mismatch(c, want)
}

func (s *eventScanner) intValue(dst *int) error {
	tok, err := s.numberValue("an integer")
	if tok == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("cannot decode the JSON number %s into an integer", tok)
	}
	*dst = int(v)
	return nil
}

func (s *eventScanner) floatValue(dst *float64) error {
	tok, err := s.numberValue("a float")
	if tok == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("cannot decode the JSON number %s into a float", tok)
	}
	*dst = v
	return nil
}

// numberValue reads a value bound for a number field: the number's bytes,
// or nil for a null.
func (s *eventScanner) numberValue(want string) ([]byte, error) {
	c, err := s.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == 'n':
		return nil, s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return s.numberToken()
	}
	return nil, mismatch(c, want)
}

func (s *eventScanner) boolValue(dst *bool) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case 't':
		*dst = true
		return s.literal("true")
	case 'f':
		*dst = false
		return s.literal("false")
	}
	return mismatch(c, "a bool")
}

// stringValue copies a string value into *dst; a null leaves it as it was.
func (s *eventScanner) stringValue(dst *[]byte) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '"':
		v, err := s.stringToken()
		*dst = append((*dst)[:0], v...)
		return err
	}
	return mismatch(c, "a string")
}

// skip consumes one value of any shape, checking its syntax; depth is the
// nesting depth of the object or array it sits in.
func (s *eventScanner) skip(depth int) error {
	c, err := s.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{' || c == '[':
		if depth >= maxNestingDepth {
			return errTooDeep
		}
		s.pos++
		if c == '{' {
			for first := true; ; first = false {
				if _, more, err := s.key(first, nil); err != nil || !more {
					return err
				}
				if err := s.skip(depth + 1); err != nil {
					return err
				}
			}
		}
		if c, err = s.peek(); err != nil {
			return err
		}
		if c == ']' {
			s.pos++
			return nil
		}
		for {
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			if c, err = s.peek(); err != nil {
				return err
			}
			s.pos++
			if c == ']' {
				return nil
			}
			if c != ',' {
				return syntaxError(c, "after array element")
			}
		}
	case c == '"':
		_, err := s.stringToken()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.numberToken()
		return err
	}
	return syntaxError(c, "looking for beginning of value")
}

// literal consumes word — true, false or null — whose first byte is next.
func (s *eventScanner) literal(word string) error {
	for s.end-s.pos < len(word) {
		if !s.refill() {
			return s.endErr()
		}
	}
	for i := 0; i < len(word); i++ {
		if c := s.buf[s.pos+i]; c != word[i] {
			return syntaxError(c, "in literal "+word)
		}
	}
	s.pos += len(word)
	return nil
}

// stringToken consumes the string whose opening quote is next and returns
// its value, valid until the scanner reads on: the raw bytes between the
// quotes when they hold no escape and nothing beyond ASCII, else what
// unquote decodes them to.
func (s *eventScanner) stringToken() ([]byte, error) {
	i, esc, plain := s.pos+1, false, true
	for {
		for ; i < s.end; i++ {
			c := s.buf[i]
			if plainByte[c] && !esc {
				continue
			}
			switch {
			case esc:
				esc = false
			case c == '"':
				raw := s.buf[s.pos+1 : i]
				s.pos = i + 1
				if plain {
					return raw, nil
				}
				return s.unquote(raw)
			case c == '\\':
				esc, plain = true, false
			case c < ' ':
				return nil, syntaxError(c, "in string literal")
			case c >= utf8.RuneSelf:
				plain = false
			}
		}
		off := i - s.pos
		if !s.refill() {
			return nil, s.endErr()
		}
		i = s.pos + off
	}
}

// plainByte marks the bytes that stand for themselves inside a string.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote decodes a raw string token into s.str as encoding/json does —
// invalid UTF-8 and unpaired surrogates become U+FFFD — and refuses the
// escapes its scanner refuses.
func (s *eventScanner) unquote(raw []byte) ([]byte, error) {
	b := s.str[:0]
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			// stringToken never ends a token on an escaping backslash.
			e := raw[r+1]
			r += 2
			switch e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(raw[r:])
				if rr < 0 {
					return nil, errors.New(`invalid \u escape in string literal`)
				}
				r += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if len(raw) >= r+2 && raw[r] == '\\' && raw[r+1] == 'u' {
						rr1 = hex4(raw[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						rr = dec
						r += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
			default:
				return nil, syntaxError(e, "in string escape code")
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	s.str = b
	return b, nil
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// numberToken consumes the number whose first byte is next and returns its
// bytes, valid until the scanner reads on. The token runs to the first
// byte that cannot continue a number and must be one number as a whole:
// no JSON value may directly follow a number, so any other run is an
// error for encoding/json too.
func (s *eventScanner) numberToken() ([]byte, error) {
	i := s.pos
	for {
		for ; i < s.end; i++ {
			if c := s.buf[i]; !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
				return s.number(i)
			}
		}
		off := i - s.pos
		if !s.refill() {
			// The body ended; the number may still be whole.
			return s.number(s.pos + off)
		}
		i = s.pos + off
	}
}

func (s *eventScanner) number(end int) ([]byte, error) {
	tok := s.buf[s.pos:end]
	if !validNumber(tok) {
		return nil, fmt.Errorf("invalid number literal %q", tok)
	}
	s.pos = end
	return tok, nil
}

// validNumber reports whether b is one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(b)
}
