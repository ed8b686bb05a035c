// Package wal is a segmented, CRC32C-framed write-ahead log for the engine's
// event stream. Records carry a monotone log sequence number (LSN, starting
// at 1) and append through a pluggable Store backend (on-disk FileStore,
// in-memory MemStore, fault-injecting FailpointStore). The engine appends
// every accepted event before applying it, so crash recovery is: load the
// last checkpoint, then replay the WAL tail past the checkpoint's LSN —
// and because the engine is bit-deterministic for a fixed event order, the
// recovered state is exactly the uninterrupted run's.
//
// Frame layout (little-endian):
//
//	[0:4]  CRC32C over bytes [4:17+n]
//	[4:8]  payload length n
//	[8]    record type
//	[9:17] LSN
//	[17:]  payload (n bytes)
//
// Segments are named %016x.wal by the LSN of their first record and rotate
// at Options.SegmentBytes. Recovery truncates a torn final record (a crash
// mid-append) cleanly; any corruption with intact data after it — a bad
// frame in a non-final segment, or one followed by valid bytes — fails
// loudly with the segment name and byte offset, because silently dropping
// an interior record would desynchronize replay from the checkpoint ledger.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
)

// Record types. Unknown types are preserved and skipped by consumers, so
// the format can grow without breaking old logs.
const (
	// RecEvent frames one engine event (internal/engine's binary codec).
	RecEvent byte = 1
	// RecCheckpoint marks a durable engine snapshot; the payload is the
	// snapshot's covered LSN. Segments wholly below it are reclaimable.
	RecCheckpoint byte = 2
)

const (
	headerSize = 17
	// MaxRecordBytes caps a single payload: a length field beyond it is
	// corruption, not a record, so recovery never trusts a garbage length
	// into a giant allocation.
	MaxRecordBytes = 16 << 20

	segSuffix = ".wal"
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when AppendBatch fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every AppendBatch (and so every Append)
	// returns: an acknowledged record is durable, at one fsync per batch.
	SyncAlways SyncPolicy = iota
	// SyncBatch is group commit: a batch that leaves Options.BatchAppends
	// or more records unsynced ends with one fsync (and so do explicit
	// Sync, rotation, and Close). Acknowledged-but-unsynced records can be
	// lost to a crash; callers that promise durability call Sync at their
	// commit points (the HTTP server syncs before every ingest response).
	SyncBatch
	// SyncNever fsyncs only on explicit Sync, rotation, and Close.
	SyncNever
)

// Options parameterizes Open.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// BatchAppends is the group-commit size under SyncBatch (default 64).
	BatchAppends int
}

// Record is one framed entry handed to Replay callbacks. Data aliases the
// buffer its segment was read into; it stays valid after the callback
// returns, because every segment is read into a buffer of its own.
type Record struct {
	LSN  uint64
	Type byte
	Data []byte
}

// CorruptError reports unrecoverable log corruption: a bad frame that is
// not a torn tail (see the package comment for the distinction).
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in segment %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

type segment struct {
	name string
	base uint64 // LSN of the segment's first record
	recs int    // records in the segment (maintained for the active one)
}

// Log is the write-ahead log. Safe for concurrent use; appends serialize
// internally (the engine additionally orders appends against its ingest
// queue so the log order is the apply order).
type Log struct {
	mu      sync.Mutex
	st      Store
	opt     Options
	segs    []segment
	cur     File // active segment handle (last of segs); nil until first append
	curSize int64
	next    uint64 // next LSN to assign; last appended is next-1
	durable uint64 // last LSN covered by a successful fsync
	pending int    // appends since the last fsync
	failed  error  // sticky: a failed append/sync poisons the log
	closed  bool
	frames  []byte // AppendBatch's frame buffer, reused across calls
}

// Open scans and validates every segment in the store, truncates a torn
// tail (crash mid-append) and positions the log to append after the last
// intact record. It fails loudly on interior corruption or LSN gaps.
func Open(st Store, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.BatchAppends <= 0 {
		opt.BatchAppends = 64
	}
	l := &Log{st: st, opt: opt, next: 1}
	names, err := st.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		base, ok := parseSegName(name)
		if !ok {
			continue // foreign file in the store dir; not ours to touch
		}
		l.segs = append(l.segs, segment{name: name, base: base})
	}
	// List is sorted and names are fixed-width hex, so segs ascend by base.
	// The first retained segment sets the origin: TruncateBefore reclaims
	// whole segments from the front, so a store legitimately starts past
	// LSN 1 (those records live in a snapshot now).
	if len(l.segs) > 0 {
		l.next = l.segs[0].base
	}
	for i, seg := range l.segs {
		if seg.base != l.next {
			return nil, fmt.Errorf("wal: segment %s starts at LSN %d, want %d (gap or duplicate)",
				seg.name, seg.base, l.next)
		}
		last := i == len(l.segs)-1
		f, err := st.Open(seg.name)
		if err != nil {
			return nil, err
		}
		valid, recs, serr := scanSegment(f, seg.name, seg.base)
		if serr != nil && (!last || !isTornTail(serr)) {
			f.Close()
			return nil, serr
		}
		if serr != nil {
			// Torn tail of the final segment: the crash interrupted the
			// last append. Drop the fragment and make the cut durable.
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.name, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		l.segs[i].recs = recs
		l.next = seg.base + uint64(recs)
		if last {
			l.cur = f
			l.curSize = valid
		} else {
			if recs == 0 {
				f.Close()
				return nil, &CorruptError{Segment: seg.name, Offset: 0,
					Reason: "non-final segment is empty"}
			}
			f.Close()
		}
	}
	l.durable = l.next - 1
	return l, nil
}

// tornTail marks a scan error that is a clean tail truncation candidate
// when it occurs in the final segment.
type tornTail struct{ err *CorruptError }

func (e *tornTail) Error() string { return e.err.Error() }

func isTornTail(err error) bool {
	var t *tornTail
	return errors.As(err, &t)
}

// scanSegment reads a segment in one pass and validates every frame (see
// walkFrames). It returns the byte length and record count of the valid
// prefix.
func scanSegment(f File, name string, base uint64) (valid int64, recs int, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, 0, err
	}
	data, err := readSegment(f, name, size)
	if err != nil {
		return 0, 0, err
	}
	return walkFrames(data, name, base, nil)
}

// readSegment reads the first size bytes of a segment with one ReadAt into
// a buffer of their own, so records handed out of it stay valid.
func readSegment(f File, name string, size int64) ([]byte, error) {
	data := make([]byte, size)
	if n, err := f.ReadAt(data, 0); n < len(data) {
		return nil, fmt.Errorf("wal: reading %s: %d of %d bytes: %w", name, n, size, err)
	}
	return data, nil
}

// walkFrames walks the frames of one segment's bytes, validating lengths,
// CRCs, and LSN continuity from base, and hands each intact record to fn
// (when non-nil). It returns the byte length and record count of the valid
// prefix; a non-nil error is fn's, a *tornTail (the bad frame is the last
// thing in the segment — truncatable if this is the final one) or a
// *CorruptError (intact data follows the bad frame, or the frame itself is
// internally inconsistent mid-log).
func walkFrames(data []byte, name string, base uint64, fn func(Record) error) (valid int64, recs int, err error) {
	size := int64(len(data))
	off := int64(0)
	lsn := base
	for off < size {
		if size-off < headerSize {
			return off, recs, &tornTail{&CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("truncated header: %d bytes of %d", size-off, headerSize)}}
		}
		n := int64(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if n > MaxRecordBytes {
			// The length field is garbage; nothing after it can be framed.
			return off, recs, &tornTail{&CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds cap %d", n, MaxRecordBytes)}}
		}
		end := off + headerSize + n
		if end > size {
			return off, recs, &tornTail{&CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("truncated payload: record ends at %d, segment has %d bytes", end, size)}}
		}
		frame := data[off:end]
		if got, want := crc32.Checksum(frame[4:], crcTable), binary.LittleEndian.Uint32(frame[0:4]); got != want {
			ce := &CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("CRC mismatch: computed %08x, stored %08x", got, want)}
			if end == size {
				// The bad frame is the very last thing in the file: a torn
				// in-place write at the tail. Truncatable.
				return off, recs, &tornTail{ce}
			}
			// Valid bytes follow: interior corruption. Dropping the record
			// would silently desynchronize replay — fail loudly.
			return off, recs, ce
		}
		if got := binary.LittleEndian.Uint64(frame[9:17]); got != lsn {
			return off, recs, &CorruptError{Segment: name, Offset: off,
				Reason: fmt.Sprintf("LSN %d, want %d (gap or reorder)", got, lsn)}
		}
		if fn != nil {
			if err := fn(Record{LSN: lsn, Type: frame[8], Data: frame[headerSize:len(frame):len(frame)]}); err != nil {
				return off, recs, err
			}
		}
		lsn++
		recs++
		off = end
	}
	return off, recs, nil
}

// Append frames one record, assigns it the next LSN, and writes it: a batch
// of one (see AppendBatch). The returned LSN is 1-based and strictly
// increasing by 1.
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	one := [1][]byte{payload}
	lsn, _, err := l.AppendBatch(typ, one[:])
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendBatch frames every payload as a record of type typ, assigns them
// consecutive LSNs starting at the returned first, and writes them to the
// active segment with one Write per segment the batch touches, then applies
// the sync policy once. Rotation cuts before exactly the record that would
// overflow the segment, just as appending the payloads one by one would, so
// the segment bytes do not depend on how records were batched.
//
// n counts the records that reached the store whole. When a write fails or
// comes up short, n stops at the last complete frame and the log is
// poisoned; when only the closing fsync fails, n is len(payloads) — the
// records are in the log, just not durable — and the log is poisoned too.
func (l *Log) AppendBatch(typ byte, payloads [][]byte) (first uint64, n int, err error) {
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return 0, 0, fmt.Errorf("wal: record payload %d bytes exceeds cap %d", len(p), MaxRecordBytes)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.failed != nil {
		return 0, 0, l.failed
	}
	first = l.next
	for n < len(payloads) {
		if l.cur == nil || (l.curSize > 0 && l.curSize+frameLen(payloads[n]) > l.opt.SegmentBytes) {
			if err := l.rotateLocked(l.next); err != nil {
				return first, n, err
			}
		}
		// Frame the run of records the active segment takes and write it.
		frames, size, run := l.frames[:0], l.curSize, 0
		for _, p := range payloads[n:] {
			if run > 0 && size+frameLen(p) > l.opt.SegmentBytes {
				break
			}
			frames = appendFrame(frames, typ, l.next+uint64(run), p)
			size += frameLen(p)
			run++
		}
		l.frames = frames
		written, werr := l.cur.Write(frames)
		if werr != nil {
			// A short or failed write leaves an undefined tail; keep the
			// whole frames before it and poison the log so no later append
			// can frame past it.
			whole, wholeBytes := wholeFrames(frames, written)
			l.advanceLocked(whole, wholeBytes)
			l.failed = fmt.Errorf("wal: append failed, log needs recovery: %w", werr)
			return first, n + whole, l.failed
		}
		l.advanceLocked(run, int64(len(frames)))
		n += run
	}
	if l.opt.Sync == SyncAlways || (l.opt.Sync == SyncBatch && l.pending >= l.opt.BatchAppends) {
		if err := l.syncLocked(); err != nil {
			return first, n, err
		}
	}
	return first, n, nil
}

func frameLen(payload []byte) int64 { return int64(headerSize + len(payload)) }

// appendFrame appends one framed record to dst (see the package comment for
// the layout).
func appendFrame(dst []byte, typ byte, lsn uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC, filled in below
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], crcTable))
	return dst
}

// wholeFrames counts the complete frames, and their bytes, among the first
// written bytes of frames.
func wholeFrames(frames []byte, written int) (recs int, size int64) {
	off := 0
	for off+headerSize <= written {
		end := off + headerSize + int(binary.LittleEndian.Uint32(frames[off+4:off+8]))
		if end > written {
			break
		}
		off = end
		recs++
	}
	return recs, int64(off)
}

// advanceLocked accounts recs records of size bytes written to the active
// segment.
func (l *Log) advanceLocked(recs int, size int64) {
	l.next += uint64(recs)
	l.curSize += size
	l.segs[len(l.segs)-1].recs += recs
	l.pending += recs
}

// rotateLocked seals the active segment (fsync + close) and starts a new
// one whose name is the next LSN, making the new name durable with a
// directory barrier.
func (l *Log) rotateLocked(base uint64) error {
	if l.cur != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			l.failed = fmt.Errorf("wal: sealing segment: %w", err)
			return l.failed
		}
		l.cur = nil
	}
	name := segName(base)
	f, err := l.st.Create(name)
	if err != nil {
		l.failed = err
		return err
	}
	if err := l.st.Sync(); err != nil {
		f.Close()
		l.failed = err
		return err
	}
	l.cur = f
	l.curSize = 0
	l.segs = append(l.segs, segment{name: name, base: base})
	return nil
}

func (l *Log) syncLocked() error {
	if l.cur == nil || l.pending == 0 {
		// Nothing appended since the last fsync: the barrier is already in
		// place. This is what turns per-request Sync calls into group
		// commit — one fsync covers every append racing with it, and the
		// racers' own Sync calls collapse into no-ops.
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: fsync failed, log needs recovery: %w", err)
		return l.failed
	}
	l.durable = l.next - 1
	l.pending = 0
	return nil
}

// Sync fsyncs the active segment: on return every appended record is
// durable. The group-commit barrier callers place at their commit points.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	return l.syncLocked()
}

// LastLSN reports the LSN of the last appended record (0 when empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// DurableLSN reports the last LSN covered by a successful fsync: the
// durable prefix a crash cannot lose.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Stats is a point-in-time snapshot for metrics.
type Stats struct {
	FirstLSN   uint64 // first retained LSN (0 when empty)
	LastLSN    uint64
	DurableLSN uint64
	Segments   int
	ActiveSize int64 // bytes in the active segment
}

// Stats snapshots the log's gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{LastLSN: l.next - 1, DurableLSN: l.durable, Segments: len(l.segs), ActiveSize: l.curSize}
	if len(l.segs) > 0 && l.next > l.segs[0].base {
		s.FirstLSN = l.segs[0].base
	}
	return s
}

// Replay walks every record with LSN >= from in order. It fails if records
// in [from, LastLSN] have been truncated away — a caller asking for them
// holds a snapshot older than the retained tail, and silently skipping
// would lose events. Each segment is read in one pass and its frames are
// validated again on the way, so a segment damaged since Open fails the
// replay with a *CorruptError instead of feeding fn garbage.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if from < 1 {
		from = 1
	}
	if len(l.segs) > 0 && from < l.segs[0].base && from <= l.next-1 {
		return fmt.Errorf("wal: records %d..%d already truncated (log starts at %d); recovery needs a newer snapshot",
			from, l.segs[0].base-1, l.segs[0].base)
	}
	tail := func(r Record) error {
		if r.LSN < from {
			return nil
		}
		return fn(r)
	}
	for i, seg := range l.segs {
		if seg.base+uint64(seg.recs) <= from {
			continue
		}
		data, err := l.readSegmentLocked(i)
		if err != nil {
			return err
		}
		_, recs, err := walkFrames(data, seg.name, seg.base, tail)
		if err != nil {
			return err
		}
		if recs != seg.recs {
			return &CorruptError{Segment: seg.name, Offset: int64(len(data)),
				Reason: fmt.Sprintf("segment holds %d records, want %d", recs, seg.recs)}
		}
	}
	return nil
}

// readSegmentLocked reads segment i whole: a sealed segment from a handle
// of its own, the active one up to the last record appended.
func (l *Log) readSegmentLocked(i int) ([]byte, error) {
	name := l.segs[i].name
	if i == len(l.segs)-1 {
		return readSegment(l.cur, name, l.curSize)
	}
	f, err := l.st.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	return readSegment(f, name, size)
}

// TruncateBefore reclaims whole segments every record of which has LSN
// below lsn — called after a checkpoint covering lsn-1 became durable. The
// active segment is never removed; partial segments are kept (reclamation
// is segment-grained). Returns the number of segments removed.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[1].base <= lsn {
		if err := l.st.Remove(l.segs[0].name); err != nil {
			return removed, err
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := l.st.Sync(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close fsyncs and closes the active segment. Further operations fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.cur == nil {
		return nil
	}
	err := l.failed
	if err == nil {
		err = l.syncLocked()
	}
	if cerr := l.cur.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

func segName(base uint64) string {
	return fmt.Sprintf("%016x%s", base, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) || len(name) != 16+len(segSuffix) {
		return 0, false
	}
	base, err := strconv.ParseUint(name[:16], 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}
