package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// observeStream feeds n pseudo-random outcomes into a strategy via a tiny
// synthetic context, exercising the change-detection windows.
func observeStream(t *testing.T, s Strategy, seed int64, n int) {
	t.Helper()
	ctx := exampleContext(t)
	rng := rand.New(rand.NewSource(seed))
	prices := make([]float64, len(ctx.Tasks))
	accepted := make([]bool, len(ctx.Tasks))
	for i := 0; i < n; i++ {
		got := s.Prices(ctx)
		copy(prices, got)
		for j := range accepted {
			accepted[j] = rng.Float64() < 0.6
		}
		s.Observe(ctx, prices, accepted)
	}
}

// TestSnapshotStateExactRoundTrip: after restoring a snapshot, the strategy
// must be indistinguishable from the original — continuing the identical
// observation stream yields identical prices and an identical re-snapshot
// (window counters included).
func TestSnapshotStateExactRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		mk   func() StateSnapshotter
	}{
		{"MAPS", func() StateSnapshotter {
			m, _ := NewMAPS(DefaultParams(), 2.2)
			m.Smoothing = 0.25
			return m
		}},
		{"CappedUCB", func() StateSnapshotter {
			c, _ := NewCappedUCB(DefaultParams(), 2.2)
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.mk()
			observeStream(t, orig.(Strategy), 11, 80) // past the change window
			st, err := orig.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot must survive JSON (the engine checkpoint medium).
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var decoded StrategyState
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			restored := tc.mk()
			if err := restored.RestoreState(decoded); err != nil {
				t.Fatal(err)
			}

			// Continue both on the same stream: identical prices...
			ctx := exampleContext(t)
			p1 := orig.(Strategy).Prices(ctx)
			p2 := restored.(Strategy).Prices(ctx)
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("restored strategy prices %v, original %v", p2, p1)
			}
			observeStream(t, orig.(Strategy), 29, 40)
			observeStream(t, restored.(Strategy), 29, 40)
			// ...and identical state afterwards, window counters included.
			s1, err := orig.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := restored.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			b1, _ := json.Marshal(s1)
			b2, _ := json.Marshal(s2)
			if string(b1) != string(b2) {
				t.Fatalf("states diverged after the shared continuation:\n%s\n%s", b1, b2)
			}
		})
	}
}

func TestSnapshotStateRejectsGarbage(t *testing.T) {
	m, _ := NewMAPS(DefaultParams(), 2)
	cases := []StrategyState{
		{Kind: "maps"}, // no head
		{Kind: "maps", Head: json.RawMessage(`not json`)},
		{Kind: "maps", Head: json.RawMessage(`{"version":99,"ladder":[1,2]}`)},
		{Kind: "maps", Head: json.RawMessage(`{"version":1,"ladder":[]}`)},
		{Kind: "maps", Head: json.RawMessage(`{"version":1,"ladder":[2,1]}`)},
		{Kind: "maps", Head: json.RawMessage(`{"version":1,"base_price":2,"ladder":[1,2]}`),
			Cells: []CellSnapshot{{Cell: -1, Total: 3}}},
		{Kind: "maps", Head: json.RawMessage(`{"version":1,"base_price":2,"ladder":[1,2]}`),
			Cells: []CellSnapshot{{Cell: 0, Total: 3, Prices: []PriceSnap{{Price: 1, Tried: 2, Accepts: 5}}}}},
	}
	for i, st := range cases {
		if err := m.RestoreState(st); err == nil {
			t.Errorf("case %d should be rejected", i)
		}
	}
}

// TestCellFilterAndMerge pins the re-sharding helpers: merging per-shard
// snapshots and re-filtering them partitions the cells without loss.
func TestCellFilterAndMerge(t *testing.T) {
	m, _ := NewMAPS(DefaultParams(), 2)
	for cell := 0; cell < 6; cell++ {
		m.CellStats(cell).Seed(2, 10+cell, 5)
	}
	full, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	even := full.CellFilter(func(c int) bool { return c%2 == 0 })
	odd := full.CellFilter(func(c int) bool { return c%2 == 1 })
	if len(even.Cells) != 3 || len(odd.Cells) != 3 {
		t.Fatalf("filter split %d/%d, want 3/3", len(even.Cells), len(odd.Cells))
	}
	merged := MergeStrategyStates([]StrategyState{odd, even})
	b1, _ := json.Marshal(full)
	b2, _ := json.Marshal(merged)
	if string(b1) != string(b2) {
		t.Fatalf("merge(filter(even), filter(odd)) != original:\n%s\n%s", b1, b2)
	}
}
