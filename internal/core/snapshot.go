package core

// Exact strategy-state snapshots: the one serialized form of a strategy's
// learned state. A snapshot captures the complete learning state —
// including the change-detection window counters — so that restoring a
// strategy and resuming the exact same observation stream reproduces every
// subsequent pricing decision bit for bit. The engine's checkpoint/restore
// path (crash recovery) depends on that exactness; a pricing service
// carrying its statistics across a redeploy uses the same snapshot.
//
// The state decomposes spatially: a StrategyState carries one Head (the
// non-spatial scalars: base price, ladder, smoothing) plus one CellSnapshot
// per grid cell. Cells partition cleanly across engine shards, so per-shard
// snapshots can be merged into one global state and re-filtered under a
// different partitioner — pricing state travels with the workers of its
// cells when an engine is restored onto a new shard layout.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// snapshotVersion is the version every strategy head carries.
const snapshotVersion = 1

// PriceSnap is one candidate price's exact learned state: the lifetime
// counts plus the sliding change-detection window of Section 4.2.2.
type PriceSnap struct {
	Price      float64 `json:"price"`
	Tried      int     `json:"tried"`
	Accepts    int     `json:"accepts"`
	WinTrials  int     `json:"win_trials,omitempty"`
	WinAccepts int     `json:"win_accepts,omitempty"`
	WinRef     float64 `json:"win_ref,omitempty"`
	WinRefSet  bool    `json:"win_ref_set,omitempty"`
}

// CellSnapshot is the exact serialized learning state of one grid cell.
type CellSnapshot struct {
	Cell         int         `json:"cell"`
	Total        int         `json:"total,omitempty"`
	Changes      int         `json:"changes,omitempty"`
	ChangeWindow int         `json:"change_window,omitempty"`
	Prices       []PriceSnap `json:"prices,omitempty"`
}

// StrategyState is a strategy's complete serializable learned state: a
// strategy-specific head (non-spatial scalars, JSON) plus per-cell
// snapshots sorted by cell.
type StrategyState struct {
	Kind  string          `json:"kind"`
	Head  json.RawMessage `json:"head,omitempty"`
	Cells []CellSnapshot  `json:"cells,omitempty"`
}

// StateSnapshotter is the optional Strategy extension for strategies whose
// learned state can be captured and restored exactly. MAPS and CappedUCB
// implement it; SDR and SDE are stateless and need nothing.
// RestoreState replaces the strategy's learned state wholesale with the
// snapshot's head and installs exactly the given cells.
type StateSnapshotter interface {
	SnapshotState() (StrategyState, error)
	RestoreState(st StrategyState) error
}

// CellFilter returns a copy of st whose cells are restricted to those for
// which keep reports true. The head is shared (it is read-only). The engine
// uses it to hand each shard the pricing state of exactly the cells it
// owns when restoring a checkpoint onto a different shard layout.
func (st StrategyState) CellFilter(keep func(cell int) bool) StrategyState {
	out := StrategyState{Kind: st.Kind, Head: st.Head}
	for _, c := range st.Cells {
		if keep(c.Cell) {
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// MergeStrategyStates combines per-shard snapshots of the same strategy
// kind into one global state: the head comes from the first snapshot with
// one (shards share scalar state by construction — every shard's strategy
// was built by the same factory) and the cell sets, which are disjoint
// across shards, are concatenated and re-sorted.
func MergeStrategyStates(states []StrategyState) StrategyState {
	var out StrategyState
	for _, st := range states {
		if out.Kind == "" {
			out.Kind = st.Kind
		}
		if out.Head == nil && st.Head != nil {
			out.Head = st.Head
		}
		out.Cells = append(out.Cells, st.Cells...)
	}
	sort.Slice(out.Cells, func(i, j int) bool { return out.Cells[i].Cell < out.Cells[j].Cell })
	return out
}

// snapshotExact captures the cell's complete state, window counters
// included. Untouched rungs are omitted.
func (cs *CellStats) snapshotExact(cell int) CellSnapshot {
	snap := CellSnapshot{Cell: cell, Total: cs.total, Changes: cs.Changes, ChangeWindow: cs.ChangeWindow}
	for i, p := range cs.ladder {
		st := cs.stat[i]
		if st == (priceStat{}) {
			continue
		}
		snap.Prices = append(snap.Prices, PriceSnap{
			Price: p, Tried: st.tried, Accepts: st.accepts,
			WinTrials: st.winTrials, WinAccepts: st.winAccepts,
			WinRef: st.winRef, WinRefSet: st.winRefSet,
		})
	}
	return snap
}

// restoreExact installs the snapshot verbatim over freshly reset state.
func (cs *CellStats) restoreExact(snap CellSnapshot) error {
	if snap.Total < 0 {
		return fmt.Errorf("core: cell %d snapshot has negative total %d", snap.Cell, snap.Total)
	}
	cs.total = snap.Total
	cs.Changes = snap.Changes
	if snap.ChangeWindow > 0 {
		cs.ChangeWindow = snap.ChangeWindow
	}
	for _, p := range snap.Prices {
		if p.Tried < 0 || p.Accepts < 0 || p.Accepts > p.Tried {
			return fmt.Errorf("core: cell %d snapshot has invalid counts %+v", snap.Cell, p)
		}
		cs.stat[cs.ladderIndex(p.Price)] = priceStat{
			tried: p.Tried, accepts: p.Accepts,
			winTrials: p.WinTrials, winAccepts: p.WinAccepts,
			winRef: p.WinRef, winRefSet: p.WinRefSet,
		}
	}
	return nil
}

// ucbHead is the shared non-spatial state of the UCB-family strategies.
type ucbHead struct {
	Version   int       `json:"version"`
	BasePrice float64   `json:"base_price"`
	Ladder    []float64 `json:"ladder"`
	Smoothing float64   `json:"smoothing,omitempty"`
}

func (h ucbHead) validate() error {
	if h.Version != snapshotVersion {
		return fmt.Errorf("core: unsupported strategy state version %d", h.Version)
	}
	if len(h.Ladder) == 0 {
		return fmt.Errorf("core: strategy state has an empty price ladder")
	}
	for i := 1; i < len(h.Ladder); i++ {
		if h.Ladder[i] <= h.Ladder[i-1] {
			return fmt.Errorf("core: strategy state ladder is not increasing at %d", i)
		}
	}
	return nil
}

// snapshot captures every touched cell, ascending by cell id.
func (t cellTable) snapshot() []CellSnapshot {
	var out []CellSnapshot
	for cell, cs := range t {
		if cs != nil {
			out = append(out, cs.snapshotExact(cell))
		}
	}
	return out
}

// SnapshotState implements StateSnapshotter: the exact learned state of the
// MAPS strategy (base price, ladder, smoothing, and every cell's UCB
// statistics with their change-detection windows).
func (m *MAPS) SnapshotState() (StrategyState, error) {
	head, err := json.Marshal(ucbHead{
		Version: snapshotVersion, BasePrice: m.basePrice,
		Ladder: m.ladder, Smoothing: m.Smoothing,
	})
	if err != nil {
		return StrategyState{}, err
	}
	return StrategyState{Kind: "maps", Head: head, Cells: m.cells.snapshot()}, nil
}

// checkStateKind rejects a snapshot taken under a different strategy: the
// UCB-family heads decode interchangeably, so without this a CappedUCB
// checkpoint would restore silently into MAPS and the resumed run would
// diverge without a diagnostic.
func checkStateKind(st StrategyState, want string) error {
	if st.Kind != want {
		return fmt.Errorf("core: strategy state kind %q cannot restore into %q", st.Kind, want)
	}
	return nil
}

// RestoreState implements StateSnapshotter: learned state is replaced
// wholesale with the snapshot's head and exactly the given cells.
func (m *MAPS) RestoreState(st StrategyState) error {
	if err := checkStateKind(st, "maps"); err != nil {
		return err
	}
	var head ucbHead
	if err := json.Unmarshal(st.Head, &head); err != nil {
		return fmt.Errorf("core: decoding MAPS state head: %w", err)
	}
	if err := head.validate(); err != nil {
		return err
	}
	m.basePrice = head.BasePrice
	m.Smoothing = head.Smoothing
	m.SetLadder(head.Ladder) // resets all cells
	return restoreUCBCells(st.Cells, m.CellStats)
}

// restoreUCBCells installs cell snapshots into a UCB statistics store. A
// cell with no observations carries no learned state and is skipped; its
// statistics are created empty again on first use.
func restoreUCBCells(cells []CellSnapshot, cellStats func(int) *CellStats) error {
	for _, c := range cells {
		if c.Cell < 0 {
			return fmt.Errorf("core: strategy state has negative cell %d", c.Cell)
		}
		if c.Total == 0 && c.Changes == 0 && len(c.Prices) == 0 {
			continue
		}
		if err := cellStats(c.Cell).restoreExact(c); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotState implements StateSnapshotter for the CappedUCB baseline.
func (c *CappedUCB) SnapshotState() (StrategyState, error) {
	head, err := json.Marshal(ucbHead{
		Version: snapshotVersion, BasePrice: c.basePrice, Ladder: c.ladder,
	})
	if err != nil {
		return StrategyState{}, err
	}
	return StrategyState{Kind: "cappeducb", Head: head, Cells: c.cells.snapshot()}, nil
}

// RestoreState implements StateSnapshotter for the CappedUCB baseline.
func (c *CappedUCB) RestoreState(st StrategyState) error {
	if err := checkStateKind(st, "cappeducb"); err != nil {
		return err
	}
	var head ucbHead
	if err := json.Unmarshal(st.Head, &head); err != nil {
		return fmt.Errorf("core: decoding CappedUCB state head: %w", err)
	}
	if err := head.validate(); err != nil {
		return err
	}
	c.basePrice = head.BasePrice
	c.ladder = append([]float64(nil), head.Ladder...)
	c.cells = nil
	c.ver++ // restored state invalidates any cached price vector
	return restoreUCBCells(st.Cells, c.CellStats)
}
