package engine

import (
	"encoding/json"
	"time"
)

// statsJSON is the stable wire shape of Stats. Durations encode twice: as
// integer nanoseconds (the machine-readable value — never changes meaning)
// and as Go's human duration string (for eyeballs). The error field encodes
// as its message or null. Field names are part of the public contract: the
// server's /stats endpoint and any scraper built on it depend on them, so
// additions are fine but renames and removals are not (the MarshalJSON test
// pins the set).
type statsJSON struct {
	Events            int64         `json:"events"`
	TasksPriced       int64         `json:"tasks_priced"`
	Quoted            int64         `json:"quoted"`
	Accepted          int64         `json:"accepted"`
	Served            int64         `json:"served"`
	Revenue           float64       `json:"revenue"`
	ShardRevenue      []float64     `json:"shard_revenue,omitempty"`
	ShardTasks        []int64       `json:"shard_tasks,omitempty"`
	Batches           int64         `json:"batches"`
	Late              int64         `json:"late"`
	StrategyErrors    int64         `json:"strategy_errors"`
	LastStrategyError *string       `json:"last_strategy_error"`
	Cache             cacheJSON     `json:"cache"`
	ShardCache        []cacheJSON   `json:"shard_cache,omitempty"`
	Stages            *stagesJSON   `json:"stages,omitempty"` // absent until a window has been priced
	Lifecycle         lifecycleJSON `json:"lifecycle"`
	P50LatencyNanos   int64         `json:"p50_latency_ns"`
	P50Latency        string        `json:"p50_latency"` //lint:snapfields human-readable duplicate; decode reads the _ns field
	P99LatencyNanos   int64         `json:"p99_latency_ns"`
	P99Latency        string        `json:"p99_latency"` //lint:snapfields human-readable duplicate; decode reads the _ns field
	ElapsedNanos      int64         `json:"elapsed_ns"`
	Elapsed           string        `json:"elapsed"` //lint:snapfields human-readable duplicate; decode reads the _ns field
	EventsPerSec      float64       `json:"events_per_sec"`
}

type cacheJSON struct {
	CtxHits       int64 `json:"ctx_hits"`
	CtxMisses     int64 `json:"ctx_misses"`
	PriceHits     int64 `json:"price_hits"`
	PriceMisses   int64 `json:"price_misses"`
	KDIncremental int64 `json:"kd_incremental"`
	KDRebuilds    int64 `json:"kd_rebuilds"`
}

func cacheToJSON(c CacheStats) cacheJSON {
	return cacheJSON{CtxHits: c.CtxHits, CtxMisses: c.CtxMisses,
		PriceHits: c.PriceHits, PriceMisses: c.PriceMisses,
		KDIncremental: c.KDIncremental, KDRebuilds: c.KDRebuilds}
}

func cacheFromJSON(j cacheJSON) CacheStats {
	return CacheStats{CtxHits: j.CtxHits, CtxMisses: j.CtxMisses,
		PriceHits: j.PriceHits, PriceMisses: j.PriceMisses,
		KDIncremental: j.KDIncremental, KDRebuilds: j.KDRebuilds}
}

type stagesJSON struct {
	Windows      int64 `json:"windows"`
	GraphNanos   int64 `json:"graph_ns"`
	ContextNanos int64 `json:"context_ns"`
	PriceNanos   int64 `json:"price_ns"`
	MatchNanos   int64 `json:"match_ns"`
	ObserveNanos int64 `json:"observe_ns"`
}

type lifecycleJSON struct {
	Onlines          int64 `json:"onlines"`
	DuplicateOnlines int64 `json:"duplicate_onlines"`
	Moves            int64 `json:"moves"`
	Migrations       int64 `json:"migrations"`
	PinnedMoves      int64 `json:"pinned_moves"`
	RetiredAssigned  int64 `json:"retired_assigned"`
	RetiredExpired   int64 `json:"retired_expired"`
	RetiredOffline   int64 `json:"retired_offline"`
	Pooled           int64 `json:"pooled"`
	Tracked          int64 `json:"tracked"`
	TrackedHeld      int64 `json:"tracked_held"`
}

// MarshalJSON encodes the snapshot in the stable shape above. Stats is a
// value type, so this also covers &Stats.
func (s Stats) MarshalJSON() ([]byte, error) {
	j := statsJSON{
		Events:          s.Events,
		TasksPriced:     s.TasksPriced,
		Quoted:          s.Quoted,
		Accepted:        s.Accepted,
		Served:          s.Served,
		Revenue:         s.Revenue,
		ShardRevenue:    s.ShardRevenue,
		ShardTasks:      s.ShardTasks,
		Batches:         s.Batches,
		Late:            s.Late,
		StrategyErrors:  s.StrategyErrors,
		P50LatencyNanos: int64(s.P50Latency),
		P50Latency:      s.P50Latency.String(),
		P99LatencyNanos: int64(s.P99Latency),
		P99Latency:      s.P99Latency.String(),
		ElapsedNanos:    int64(s.Elapsed),
		Elapsed:         s.Elapsed.String(),
		EventsPerSec:    s.EventsPerSec,
		Cache:           cacheToJSON(s.Cache),
		Lifecycle: lifecycleJSON{
			Onlines:          s.Lifecycle.Onlines,
			DuplicateOnlines: s.Lifecycle.DuplicateOnlines,
			Moves:            s.Lifecycle.Moves,
			Migrations:       s.Lifecycle.Migrations,
			PinnedMoves:      s.Lifecycle.PinnedMoves,
			RetiredAssigned:  s.Lifecycle.RetiredAssigned,
			RetiredExpired:   s.Lifecycle.RetiredExpired,
			RetiredOffline:   s.Lifecycle.RetiredOffline,
			Pooled:           s.Lifecycle.Pooled,
			Tracked:          s.Lifecycle.Tracked,
			TrackedHeld:      s.Lifecycle.TrackedHeld,
		},
	}
	for _, c := range s.ShardCache {
		j.ShardCache = append(j.ShardCache, cacheToJSON(c))
	}
	if st := s.Stages; st != (StageStats{}) {
		j.Stages = &stagesJSON{Windows: st.Windows,
			GraphNanos: int64(st.Graph), ContextNanos: int64(st.Context), PriceNanos: int64(st.Price),
			MatchNanos: int64(st.Match), ObserveNanos: int64(st.Observe)}
	}
	if s.LastStrategyError != nil {
		msg := s.LastStrategyError.Error()
		j.LastStrategyError = &msg
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the MarshalJSON shape back into a Stats. The
// round trip is lossy only in LastStrategyError, which comes back as an
// opaque error wrapping the original message (the typed *PriceCountError
// does not survive the wire).
func (s *Stats) UnmarshalJSON(data []byte) error {
	var j statsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Stats{
		Events:         j.Events,
		TasksPriced:    j.TasksPriced,
		Quoted:         j.Quoted,
		Accepted:       j.Accepted,
		Served:         j.Served,
		Revenue:        j.Revenue,
		ShardRevenue:   j.ShardRevenue,
		ShardTasks:     j.ShardTasks,
		Batches:        j.Batches,
		Late:           j.Late,
		StrategyErrors: j.StrategyErrors,
		P50Latency:     time.Duration(j.P50LatencyNanos),
		P99Latency:     time.Duration(j.P99LatencyNanos),
		Elapsed:        time.Duration(j.ElapsedNanos),
		EventsPerSec:   j.EventsPerSec,
		Cache:          cacheFromJSON(j.Cache),
		Lifecycle: LifecycleStats{
			Onlines:          j.Lifecycle.Onlines,
			DuplicateOnlines: j.Lifecycle.DuplicateOnlines,
			Moves:            j.Lifecycle.Moves,
			Migrations:       j.Lifecycle.Migrations,
			PinnedMoves:      j.Lifecycle.PinnedMoves,
			RetiredAssigned:  j.Lifecycle.RetiredAssigned,
			RetiredExpired:   j.Lifecycle.RetiredExpired,
			RetiredOffline:   j.Lifecycle.RetiredOffline,
			Pooled:           j.Lifecycle.Pooled,
			Tracked:          j.Lifecycle.Tracked,
			TrackedHeld:      j.Lifecycle.TrackedHeld,
		},
	}
	for _, c := range j.ShardCache {
		s.ShardCache = append(s.ShardCache, cacheFromJSON(c))
	}
	if st := j.Stages; st != nil {
		s.Stages = StageStats{Windows: st.Windows,
			Graph: time.Duration(st.GraphNanos), Context: time.Duration(st.ContextNanos),
			Price: time.Duration(st.PriceNanos), Match: time.Duration(st.MatchNanos),
			Observe: time.Duration(st.ObserveNanos)}
	}
	if j.LastStrategyError != nil {
		s.LastStrategyError = statsWireError(*j.LastStrategyError)
	}
	return nil
}

// statsWireError is the decoded form of LastStrategyError: the original
// message, no longer the typed value.
type statsWireError string

func (e statsWireError) Error() string { return string(e) }
