package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// payload builds a distinguishable record body for LSN i.
func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%06d-%s", i, strings.Repeat("x", i%7)))
}

// appendN appends records 1..n, failing the test on any error.
func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		lsn, err := l.Append(RecEvent, payload(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
}

// collect replays from the given LSN into a map.
func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	if err := l.Replay(from, func(r Record) error {
		out[r.LSN] = r.Data
		return nil
	}); err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			st := Store(NewMemStore())
			if backend == "file" {
				fs, err := NewFileStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				st = fs
			}
			l, err := Open(st, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 100)
			if got := l.LastLSN(); got != 100 {
				t.Fatalf("LastLSN = %d, want 100", got)
			}
			if got := l.DurableLSN(); got != 100 {
				t.Fatalf("DurableLSN = %d, want 100 under SyncAlways", got)
			}
			recs := collect(t, l, 1)
			if len(recs) != 100 {
				t.Fatalf("replayed %d records, want 100", len(recs))
			}
			for i := 1; i <= 100; i++ {
				if string(recs[uint64(i)]) != string(payload(i)) {
					t.Fatalf("record %d payload mismatch", i)
				}
			}
			// Mid-stream replay honors from.
			if got := len(collect(t, l, 60)); got != 41 {
				t.Fatalf("replay from 60 returned %d records, want 41", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen resumes the LSN sequence and keeps the history.
			l2, err := Open(st, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := l2.LastLSN(); got != 100 {
				t.Fatalf("reopened LastLSN = %d, want 100", got)
			}
			appendN(t, l2, 101, 110)
			if got := len(collect(t, l2, 1)); got != 110 {
				t.Fatalf("after reopen+append, %d records, want 110", got)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	st := NewMemStore()
	l, err := Open(st, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 50)
	stats := l.Stats()
	if stats.Segments < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", stats.Segments)
	}
	names, _ := st.List()
	if len(names) != stats.Segments {
		t.Fatalf("store holds %d files, stats say %d segments", len(names), stats.Segments)
	}
	// Segment names are their base LSNs; the first is 1.
	if base, ok := parseSegName(names[0]); !ok || base != 1 {
		t.Fatalf("first segment %q, want base LSN 1", names[0])
	}
	if got := len(collect(t, l, 1)); got != 50 {
		t.Fatalf("replay across segments returned %d records, want 50", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen validates every segment and lands on the same position.
	l2, err := Open(st, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastLSN(); got != 50 {
		t.Fatalf("reopened LastLSN = %d, want 50", got)
	}
	l2.Close()
}

func TestTruncateBefore(t *testing.T) {
	st := NewMemStore()
	l, err := Open(st, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 60)
	first := l.Stats()
	if first.Segments < 4 {
		t.Fatalf("need several segments, got %d", first.Segments)
	}
	removed, err := l.TruncateBefore(31)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	stats := l.Stats()
	if stats.FirstLSN > 31 {
		t.Fatalf("truncation dropped needed records: FirstLSN = %d", stats.FirstLSN)
	}
	// Replaying the retained tail works; replaying past-truncation data
	// fails loudly instead of silently skipping.
	if got := len(collect(t, l, 31)); got != 30 {
		t.Fatalf("replay from 31 returned %d records, want 30", got)
	}
	if stats.FirstLSN > 1 {
		if err := l.Replay(1, func(Record) error { return nil }); err == nil {
			t.Fatal("Replay(1) after truncation should fail (records gone)")
		}
	}
	// The active segment never goes away.
	if _, err := l.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 1 || s.LastLSN != 60 {
		t.Fatalf("after full truncation: %d segments, LastLSN %d; want 1 / 60", s.Segments, s.LastLSN)
	}
	l.Close()

	// A truncated store reopens: the first retained segment defines the
	// origin, and the LSN sequence continues where it left off.
	l2, err := Open(st, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	if s := l2.Stats(); s.LastLSN != 60 || s.FirstLSN <= 31 {
		t.Fatalf("reopened stats %+v, want LastLSN 60 with a truncated front", s)
	}
	appendN(t, l2, 61, 65)
	l2.Close()
}

func TestGroupCommitSyncPolicy(t *testing.T) {
	st := NewMemStore()
	fp := NewFailpointStore(st, Failpoints{}) // no faults; just sync/size tracking
	l, err := Open(fp, Options{Sync: SyncBatch, BatchAppends: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 9)
	if got := l.DurableLSN(); got != 0 {
		t.Fatalf("DurableLSN = %d before the batch filled, want 0", got)
	}
	appendN(t, l, 10, 10)
	if got := l.DurableLSN(); got != 10 {
		t.Fatalf("DurableLSN = %d after 10 appends, want 10 (group commit)", got)
	}
	appendN(t, l, 11, 14)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != 14 {
		t.Fatalf("DurableLSN = %d after explicit Sync, want 14", got)
	}
	l.Close()
}

// TestTornTailTruncatedCleanly covers the satellite requirement: a torn
// final record — header or payload cut short, or a CRC-bad frame at the
// very end — is dropped cleanly on reopen, and the log appends past the
// cut.
func TestTornTailTruncatedCleanly(t *testing.T) {
	// tears maps a name to how many bytes to chop off the final segment.
	tears := []struct {
		name string
		chop int64
	}{
		{"mid-payload", 3},
		{"mid-header", headerSize + 8}, // leaves a partial header of the last record
		{"header-only", 0},             // handled below by appending garbage instead
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			l, err := Open(fs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 20)
			l.Close()

			names, _ := fs.List()
			segPath := filepath.Join(dir, names[len(names)-1])
			data, err := os.ReadFile(segPath)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.name {
			case "header-only":
				// A bare partial header after the last good record.
				data = append(data, 0xde, 0xad, 0xbe)
			default:
				data = data[:int64(len(data))-tc.chop]
			}
			if err := os.WriteFile(segPath, data, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(fs, Options{})
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			wantLast := uint64(19)
			if tc.name == "header-only" {
				wantLast = 20 // nothing was chopped, only garbage appended
			}
			if got := l2.LastLSN(); got != wantLast {
				t.Fatalf("LastLSN after torn-tail recovery = %d, want %d", got, wantLast)
			}
			// The log is appendable past the cut and the sequence heals.
			if lsn, err := l2.Append(RecEvent, []byte("resumed")); err != nil || lsn != wantLast+1 {
				t.Fatalf("append after recovery: lsn %d err %v", lsn, err)
			}
			if got := uint64(len(collect(t, l2, 1))); got != wantLast+1 {
				t.Fatalf("replay after recovery returned %d records, want %d", got, wantLast+1)
			}
			l2.Close()
		})
	}
}

// TestTornInteriorFailsLoudly covers the other half of the satellite: a
// corrupt record with intact data after it — in a sealed segment, or
// mid-segment with valid frames following — must fail Open with the
// segment name and byte offset, never be silently dropped.
func TestTornInteriorFailsLoudly(t *testing.T) {
	t.Run("flip-in-sealed-segment", func(t *testing.T) {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(fs, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 40) // several segments
		l.Close()
		names, _ := fs.List()
		if len(names) < 3 {
			t.Fatalf("need >= 3 segments, got %d", len(names))
		}
		victim := names[1]
		segPath := filepath.Join(dir, victim)
		data, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		data[headerSize+2] ^= 0x40 // flip a payload bit of the segment's first record
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(fs, Options{SegmentBytes: 256})
		if err == nil {
			t.Fatal("Open succeeded over interior corruption")
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v is not a *CorruptError", err)
		}
		if ce.Segment != victim || ce.Offset != 0 {
			t.Fatalf("corruption located at %s:%d, want %s:0", ce.Segment, ce.Offset, victim)
		}
	})

	t.Run("flip-mid-active-segment", func(t *testing.T) {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 20)
		l.Close()
		names, _ := fs.List()
		segPath := filepath.Join(dir, names[0])
		data, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the FIRST record: valid frames follow it, so this is
		// interior damage even though the segment is the active one.
		data[headerSize] ^= 0x01
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(fs, Options{})
		var ce *CorruptError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("want *CorruptError for mid-segment flip, got %v", err)
		}
		if ce.Segment != names[0] || ce.Offset != 0 {
			t.Fatalf("corruption located at %s:%d, want %s:0", ce.Segment, ce.Offset, names[0])
		}
		if !strings.Contains(ce.Error(), "offset") {
			t.Fatalf("error %q does not name the offset", ce.Error())
		}
	})

	t.Run("lsn-gap", func(t *testing.T) {
		st := NewMemStore()
		l, err := Open(st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 3)
		l.Close()
		// Hand-frame a record with a skipped LSN and append it raw.
		f, err := st.Open(segName(1))
		if err != nil {
			t.Fatal(err)
		}
		body := []byte("gap")
		frame := make([]byte, headerSize+len(body))
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(body)))
		frame[8] = RecEvent
		binary.LittleEndian.PutUint64(frame[9:17], 9) // want 4
		copy(frame[headerSize:], body)
		binary.LittleEndian.PutUint32(frame[0:4], crc32Of(frame[4:]))
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
		_, err = Open(st, Options{})
		var ce *CorruptError
		if err == nil || !errors.As(err, &ce) {
			t.Fatalf("want *CorruptError for LSN gap, got %v", err)
		}
		if !strings.Contains(err.Error(), "LSN") {
			t.Fatalf("error %q does not mention the LSN", err)
		}
	})
}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}

func TestAppendAfterFailureIsRefused(t *testing.T) {
	st := NewMemStore()
	fp := NewFailpointStore(st, Failpoints{CrashAfterBytes: 200})
	l, err := Open(fp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	n := 0
	for i := 1; i <= 100; i++ {
		if _, err := l.Append(RecEvent, payload(i)); err != nil {
			firstErr = err
			break
		}
		n++
	}
	if firstErr == nil {
		t.Fatal("write budget never tripped")
	}
	if !errors.Is(firstErr, ErrInjected) {
		t.Fatalf("append error %v does not wrap ErrInjected", firstErr)
	}
	// The log is poisoned: no append may frame past an undefined tail.
	if _, err := l.Append(RecEvent, []byte("after")); err == nil {
		t.Fatal("append succeeded on a failed log")
	}
	// Recovery over the underlying store sees the durable prefix and the
	// torn record is dropped.
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := l2.LastLSN(); got != uint64(n) {
		t.Fatalf("recovered LastLSN = %d, want %d accepted appends", got, n)
	}
	l2.Close()
}

func TestFailpointLoseUnsynced(t *testing.T) {
	st := NewMemStore()
	fp := NewFailpointStore(st, Failpoints{LoseUnsynced: true})
	l, err := Open(fp, Options{Sync: SyncBatch, BatchAppends: 5})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 13) // 10 synced (two batches), 3 in the page cache
	if got := l.DurableLSN(); got != 10 {
		t.Fatalf("DurableLSN = %d, want 10", got)
	}
	fp.Kill()
	// Machine crash: the unsynced suffix evaporates; recovery sees 10.
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := l2.LastLSN(); got != 10 {
		t.Fatalf("recovered LastLSN = %d, want the durable 10", got)
	}
	l2.Close()
}

func TestFailpointSyncError(t *testing.T) {
	st := NewMemStore()
	fp := NewFailpointStore(st, Failpoints{FailSyncAt: 3, LoseUnsynced: true})
	l, err := Open(fp, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	n := 0
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(RecEvent, payload(i)); err != nil {
			firstErr = err
			break
		}
		n++
	}
	if firstErr == nil || !errors.Is(firstErr, ErrInjected) {
		t.Fatalf("scripted sync failure did not surface: %v", firstErr)
	}
	if n != 2 {
		t.Fatalf("accepted %d appends before the 3rd sync failed, want 2", n)
	}
	l2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("recovered LastLSN = %d, want 2 synced records", got)
	}
	l2.Close()
}

func TestCheckpointMarkersSkipped(t *testing.T) {
	st := NewMemStore()
	l, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	var lsn [8]byte
	binary.LittleEndian.PutUint64(lsn[:], 5)
	if got, err := l.Append(RecCheckpoint, lsn[:]); err != nil || got != 6 {
		t.Fatalf("marker append: lsn %d err %v", got, err)
	}
	events := 0
	if err := l.Replay(1, func(r Record) error {
		if r.Type == RecEvent {
			events++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != 5 {
		t.Fatalf("replayed %d event records, want 5 (marker filtered by type)", events)
	}
	l.Close()
}

// segmentBytes snapshots every file of a store.
func segmentBytes(t *testing.T, st *MemStore) map[string][]byte {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := st.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		b := make([]byte, size)
		if _, err := f.ReadAt(b, 0); err != nil && size > 0 {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestAppendBatchMatchesAppend: however a record stream is cut into batches,
// the segments hold the same bytes as appending it one record at a time —
// rotation cuts before the same record even when a batch spans several
// segments.
func TestAppendBatchMatchesAppend(t *testing.T) {
	const n = 400
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = payload(i + 1)
	}
	opt := Options{SegmentBytes: 300, Sync: SyncBatch, BatchAppends: 16}
	ref := NewMemStore()
	l, err := Open(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, n)
	l.Close()
	want := segmentBytes(t, ref)
	if len(want) < 10 {
		t.Fatalf("reference log has %d segments; rotation was not exercised", len(want))
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		st := NewMemStore()
		l, err := Open(st, opt)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; {
			end := min(off+1+rng.Intn(60), n)
			first, got, err := l.AppendBatch(RecEvent, payloads[off:end])
			if err != nil || got != end-off || first != uint64(off+1) {
				t.Fatalf("trial %d: AppendBatch(%d..%d) = first %d, %d records, %v", trial, off+1, end, first, got, err)
			}
			off = end
		}
		l.Close()
		if got := segmentBytes(t, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: segments differ from one-record-at-a-time appends (%d vs %d files)", trial, len(got), len(want))
		}
	}
}

// TestAppendBatchShortWrite: a write that tears inside a batch reports
// exactly the whole records it wrote, poisons the log, and recovery keeps
// those records and drops the torn one.
func TestAppendBatchShortWrite(t *testing.T) {
	payloads := make([][]byte, 50)
	total := 0
	for i := range payloads {
		payloads[i] = payload(i + 1)
		total += headerSize + len(payloads[i])
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		budget := 1 + rng.Intn(total-1)
		wantWhole, size := 0, 0
		for _, p := range payloads {
			if size+headerSize+len(p) > budget {
				break
			}
			size += headerSize + len(p)
			wantWhole++
		}
		st := NewMemStore()
		l, err := Open(NewFailpointStore(st, Failpoints{CrashAfterBytes: int64(budget)}), Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := l.AppendBatch(RecEvent, payloads)
		if !errors.Is(err, ErrInjected) || got != wantWhole {
			t.Fatalf("budget %d: AppendBatch wrote %d whole records (err %v), want %d", budget, got, err, wantWhole)
		}
		if last := l.LastLSN(); last != uint64(wantWhole) {
			t.Fatalf("budget %d: LastLSN %d after a torn batch, want %d", budget, last, wantWhole)
		}
		if _, _, err := l.AppendBatch(RecEvent, payloads[:1]); err == nil {
			t.Fatalf("budget %d: append succeeded on a poisoned log", budget)
		}
		l2, err := Open(st, Options{})
		if err != nil {
			t.Fatalf("budget %d: recovery open: %v", budget, err)
		}
		if last := l2.LastLSN(); last != uint64(wantWhole) {
			t.Fatalf("budget %d: recovered LastLSN %d, want %d", budget, last, wantWhole)
		}
		l2.Close()
	}
}

// TestAppendBatchSyncPolicy: SyncBatch fsyncs once per batch that leaves
// BatchAppends records unsynced, SyncAlways once per batch.
func TestAppendBatchSyncPolicy(t *testing.T) {
	batch := make([][]byte, 25)
	for i := range batch {
		batch[i] = payload(i)
	}
	for _, tc := range []struct {
		opt         Options
		wantDurable []uint64 // after each of three batches
	}{
		{Options{Sync: SyncBatch, BatchAppends: 64}, []uint64{0, 0, 75}},
		{Options{Sync: SyncBatch, BatchAppends: 10}, []uint64{25, 50, 75}},
		{Options{Sync: SyncAlways}, []uint64{25, 50, 75}},
	} {
		l, err := Open(NewMemStore(), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.wantDurable {
			if _, _, err := l.AppendBatch(RecEvent, batch); err != nil {
				t.Fatal(err)
			}
			if got := l.DurableLSN(); got != want {
				t.Errorf("%+v: DurableLSN %d after batch %d, want %d", tc.opt, got, i+1, want)
			}
		}
		l.Close()
	}
}

// TestReplayAllocsPerSegment pins recovery's read path: Replay reads each
// segment with one ReadAt into one buffer, so its allocations grow with the
// segments, not the records.
func TestReplayAllocsPerSegment(t *testing.T) {
	l, err := Open(NewMemStore(), Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 600)
	if segs := l.Stats().Segments; segs != 3 {
		t.Fatalf("log has %d segments, want 3", segs)
	}
	records := 0
	count := func(Record) error { records++; return nil }
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.Replay(1, count); err != nil {
			t.Fatal(err)
		}
	})
	if records != 21*600 {
		t.Fatalf("replayed %d records, want %d", records, 21*600)
	}
	if allocs > 3*2 {
		t.Fatalf("Replay of 3 segments / 600 records made %.0f allocations, want at most 2 per segment", allocs)
	}
}
