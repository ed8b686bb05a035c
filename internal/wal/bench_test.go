package wal

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkWALAppend documents the CPU cost an engine pays per appended
// record — framing, CRC32C, the store write. The mem-* rows append one
// record per op against the in-memory store, so the number is deterministic
// (no fsync or disk noise). The *-batch-325x40B rows append one op of 325
// 40-byte records, the shape of one ingest-wal POST, through AppendBatch:
// mem-batch against the in-memory store, file-batch against a FileStore
// with one fsync per batch, as the server pays before it acknowledges. Sealed
// segments are reclaimed as the run goes so memory and disk stay bounded at
// any -benchtime.
func BenchmarkWALAppend(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("mem-%dB", size), func(b *testing.B) {
			l, err := Open(NewMemStore(), Options{Sync: SyncNever, SegmentBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte{0xA5}, size)
			b.SetBytes(int64(headerSize + size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(RecEvent, payload); err != nil {
					b.Fatal(err)
				}
				if i&0x1FFF == 0x1FFF {
					if _, err := l.TruncateBefore(l.LastLSN()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	const batch, size = 325, 40
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	for _, backend := range []string{"mem", "file"} {
		b.Run(fmt.Sprintf("%s-batch-%dx%dB", backend, batch, size), func(b *testing.B) {
			st, opt := Store(NewMemStore()), Options{Sync: SyncNever, SegmentBytes: 1 << 20}
			if backend == "file" {
				fs, err := NewFileStore(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				st, opt.Sync = fs, SyncAlways
			}
			l, err := Open(st, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(batch * (headerSize + size)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := l.AppendBatch(RecEvent, payloads); err != nil {
					b.Fatal(err)
				}
				if i&0x3F == 0x3F {
					if _, err := l.TruncateBefore(l.LastLSN()); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
	}
}
