package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"
	"unicode/utf8"
)

func fullStats() Stats {
	return Stats{
		Events:            123456,
		TasksPriced:       4000,
		Quoted:            3500,
		Accepted:          3000,
		Served:            2800,
		Revenue:           98765.4321,
		ShardRevenue:      []float64{50000.25, 48765.1821},
		ShardTasks:        []int64{2100, 1900},
		Batches:           400,
		Late:              7,
		StrategyErrors:    2,
		LastStrategyError: errors.New("strategy returned 3 prices for 4 tasks"),
		Cache: CacheStats{CtxHits: 300, CtxMisses: 100, PriceHits: 250,
			PriceMisses: 150, KDIncremental: 280, KDRebuilds: 20},
		ShardCache: []CacheStats{
			{CtxHits: 200, CtxMisses: 40, PriceHits: 180, PriceMisses: 60,
				KDIncremental: 200, KDRebuilds: 5},
			{CtxHits: 100, CtxMisses: 60, PriceHits: 70, PriceMisses: 90,
				KDIncremental: 80, KDRebuilds: 15},
		},
		Stages: StageStats{Windows: 400, Graph: 90 * time.Millisecond,
			Context: 20 * time.Millisecond, Price: 300 * time.Millisecond,
			Match: 45 * time.Millisecond, Observe: 30 * time.Millisecond},
		Lifecycle: LifecycleStats{
			Onlines: 900, DuplicateOnlines: 3, Moves: 1200, Migrations: 80,
			PinnedMoves: 5, RetiredAssigned: 700, RetiredExpired: 150,
			RetiredOffline: 40, Pooled: 10, Tracked: 12, TrackedHeld: 2,
		},
		P50Latency:   1500 * time.Microsecond,
		P99Latency:   42 * time.Millisecond,
		Elapsed:      3*time.Minute + 9*time.Second,
		EventsPerSec: 653.2,
	}
}

// TestStatsMarshalJSONStableShape pins the wire contract of Stats: the
// exact top-level and lifecycle key sets, durations as both integer
// nanoseconds and human strings, and the error as its message. Renaming or
// removing a key is a breaking change for /stats scrapers — this test is
// the tripwire.
func TestStatsMarshalJSONStableShape(t *testing.T) {
	raw, err := json.Marshal(fullStats())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal into map: %v", err)
	}

	wantKeys := []string{
		"events", "tasks_priced", "quoted", "accepted", "served",
		"revenue", "shard_revenue", "shard_tasks", "batches", "late",
		"strategy_errors", "last_strategy_error", "cache", "shard_cache",
		"stages", "lifecycle",
		"p50_latency_ns", "p50_latency", "p99_latency_ns", "p99_latency",
		"elapsed_ns", "elapsed", "events_per_sec",
	}
	gotKeys := make([]string, 0, len(m))
	for k := range m {
		gotKeys = append(gotKeys, k)
	}
	sort.Strings(gotKeys)
	sort.Strings(wantKeys)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Errorf("top-level key set changed:\n got %v\nwant %v", gotKeys, wantKeys)
	}

	lc, ok := m["lifecycle"].(map[string]any)
	if !ok {
		t.Fatalf("lifecycle is %T, want object", m["lifecycle"])
	}
	wantLC := []string{
		"onlines", "duplicate_onlines", "moves", "migrations", "pinned_moves",
		"retired_assigned", "retired_expired", "retired_offline",
		"pooled", "tracked", "tracked_held",
	}
	gotLC := make([]string, 0, len(lc))
	for k := range lc {
		gotLC = append(gotLC, k)
	}
	sort.Strings(gotLC)
	sort.Strings(wantLC)
	if !reflect.DeepEqual(gotLC, wantLC) {
		t.Errorf("lifecycle key set changed:\n got %v\nwant %v", gotLC, wantLC)
	}

	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache is %T, want object", m["cache"])
	}
	wantCache := []string{
		"ctx_hits", "ctx_misses", "price_hits", "price_misses",
		"kd_incremental", "kd_rebuilds",
	}
	gotCache := make([]string, 0, len(cache))
	for k := range cache {
		gotCache = append(gotCache, k)
	}
	sort.Strings(gotCache)
	sort.Strings(wantCache)
	if !reflect.DeepEqual(gotCache, wantCache) {
		t.Errorf("cache key set changed:\n got %v\nwant %v", gotCache, wantCache)
	}

	stages, ok := m["stages"].(map[string]any)
	if !ok {
		t.Fatalf("stages is %T, want object", m["stages"])
	}
	wantStages := []string{"windows", "graph_ns", "context_ns", "price_ns", "match_ns", "observe_ns"}
	gotStages := make([]string, 0, len(stages))
	for k := range stages {
		gotStages = append(gotStages, k)
	}
	sort.Strings(gotStages)
	sort.Strings(wantStages)
	if !reflect.DeepEqual(gotStages, wantStages) {
		t.Errorf("stages key set changed:\n got %v\nwant %v", gotStages, wantStages)
	}
	// Before any window is priced the block is absent, not a row of zeros.
	if raw, _ := json.Marshal(Stats{}); bytes.Contains(raw, []byte(`"stages"`)) {
		t.Errorf("zero Stats encodes a stages block: %s", raw)
	}

	if ns := m["p50_latency_ns"].(float64); int64(ns) != int64(1500*time.Microsecond) {
		t.Errorf("p50_latency_ns = %v, want %d", ns, int64(1500*time.Microsecond))
	}
	if s := m["p50_latency"].(string); s != "1.5ms" {
		t.Errorf("p50_latency = %q, want \"1.5ms\"", s)
	}
	if ns := m["p99_latency_ns"].(float64); int64(ns) != int64(42*time.Millisecond) {
		t.Errorf("p99_latency_ns = %v, want %d", ns, int64(42*time.Millisecond))
	}
	if s := m["elapsed"].(string); s != "3m9s" {
		t.Errorf("elapsed = %q, want \"3m9s\"", s)
	}
	if msg := m["last_strategy_error"].(string); msg != "strategy returned 3 prices for 4 tasks" {
		t.Errorf("last_strategy_error = %q", msg)
	}
}

// TestStatsJSONRoundTrip checks Unmarshal(Marshal(s)) reproduces every
// field; the error comes back equal in message (the typed value is
// intentionally not preserved).
func TestStatsJSONRoundTrip(t *testing.T) {
	orig := fullStats()
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.LastStrategyError == nil || back.LastStrategyError.Error() != orig.LastStrategyError.Error() {
		t.Errorf("error message lost: %v", back.LastStrategyError)
	}
	a, b := orig, back
	a.LastStrategyError, b.LastStrategyError = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("round trip changed stats:\n in  %+v\n out %+v", a, b)
	}
}

// TestStatsJSONNilError checks the error field encodes as explicit null
// and decodes back to nil.
func TestStatsJSONNilError(t *testing.T) {
	s := fullStats()
	s.LastStrategyError = nil
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	v, present := m["last_strategy_error"]
	if !present || v != nil {
		t.Errorf("last_strategy_error = %v (present %v), want explicit null", v, present)
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.LastStrategyError != nil {
		t.Errorf("nil error decoded as %v", back.LastStrategyError)
	}
}

// FuzzStatsJSONRoundTrip drives the Stats wire format from two directions.
// Structured: any encodable Stats must decode from its own encoding, and
// re-encoding the decoded value must be a byte-level fixed point (this is
// what the server's /stats scrape and the snapfields analyzer both assume).
// Raw: any bytes UnmarshalJSON accepts must re-encode and decode again
// without error, so a hostile or truncated scrape can never wedge the
// format.
func FuzzStatsJSONRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), 3.5, int64(4), int64(5), 6.25, "boom", []byte(`{"events":1}`))
	f.Add(int64(0), int64(0), 0.0, int64(0), int64(-1), -2.5, "", []byte(`{"last_strategy_error":null}`))
	f.Fuzz(func(t *testing.T, events, priced int64, revenue float64, late, p50 int64, shardRev float64, errMsg string, raw []byte) {
		s := Stats{
			Events:         events,
			TasksPriced:    priced,
			Revenue:        revenue,
			Late:           late,
			P50Latency:     time.Duration(p50),
			ShardRevenue:   []float64{shardRev, revenue},
			ShardTasks:     []int64{priced, events},
			StrategyErrors: 1,
			Stages: StageStats{Windows: late, Graph: time.Duration(p50),
				Context: time.Duration(events), Price: time.Duration(priced),
				Match: time.Duration(late), Observe: time.Duration(p50)},
		}
		if errMsg != "" {
			if !utf8.ValidString(errMsg) {
				// encoding/json normalizes invalid UTF-8 to U+FFFD — escaped
				// as \ufffd on the first encode but emitted raw thereafter —
				// so the byte fixed point only holds for valid strings. Found
				// by this fuzzer; the raw path below still covers such bytes.
				t.Skip()
			}
			s.LastStrategyError = errors.New(errMsg)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Skip() // NaN/Inf floats are not encodable; nothing to round-trip
		}
		var back Stats
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, b)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encode after round trip failed: %v", err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("marshal is not a fixed point:\n first %s\n again %s", b, b2)
		}

		// Arbitrary input: acceptance implies a clean re-encode/decode.
		var fromRaw Stats
		if err := json.Unmarshal(raw, &fromRaw); err == nil {
			b3, err := json.Marshal(fromRaw)
			if err != nil {
				t.Fatalf("re-encode of accepted input failed: %v (input %q)", err, raw)
			}
			var again Stats
			if err := json.Unmarshal(b3, &again); err != nil {
				t.Fatalf("decode of re-encoded input failed: %v\n%s", err, b3)
			}
		}
	})
}
