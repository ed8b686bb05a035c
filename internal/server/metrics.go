package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"spatialcrowd/internal/engine"
)

// The /metrics encoder writes Prometheus text exposition format (version
// 0.0.4) by hand — no client library dependency. Every family is emitted
// once with its HELP/TYPE header followed by one sample per tenant (per
// shard where applicable), so a multi-city server scrapes as one page with
// a `tenant` label distinguishing the cities.

// metricFamily describes one family and how to sample it per tenant.
type metricFamily struct {
	name string
	help string
	typ  string // "counter" | "gauge"
	// sample appends one line per (labelset, value) for the tenant.
	sample func(b *strings.Builder, tenant string, t *Tenant, st engine.Stats, qd engine.QueueDepths)
}

// writeSample writes `name{tenant="x",k1="v1",...} value` with the tenant
// label always first. Values render in Go's shortest round-trip float form,
// which Prometheus accepts.
func writeSample(b *strings.Builder, name, tenant string, extra []string, v float64) {
	b.WriteString(name)
	b.WriteString(`{tenant="`)
	b.WriteString(tenant)
	b.WriteString(`"`)
	for i := 0; i+1 < len(extra); i += 2 {
		b.WriteString(",")
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(extra[i+1])
		b.WriteString(`"`)
	}
	b.WriteString("} ")
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteString("\n")
}

func counter(name, help string, f func(*Tenant, engine.Stats, engine.QueueDepths) float64) metricFamily {
	return scalarFamily(name, help, "counter", f)
}

func gauge(name, help string, f func(*Tenant, engine.Stats, engine.QueueDepths) float64) metricFamily {
	return scalarFamily(name, help, "gauge", f)
}

func scalarFamily(name, help, typ string, f func(*Tenant, engine.Stats, engine.QueueDepths) float64) metricFamily {
	return metricFamily{name: name, help: help, typ: typ,
		sample: func(b *strings.Builder, tenant string, t *Tenant, st engine.Stats, qd engine.QueueDepths) {
			writeSample(b, name, tenant, nil, f(t, st, qd))
		}}
}

// metricFamilies is the fixed family set, in exposition order. The parsing
// test pins the required names; additions are free, removals break
// scrapers.
var metricFamilies = []metricFamily{
	counter("spatialcrowd_events_total", "Events accepted by the engine.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Events) }),
	counter("spatialcrowd_http_ingested_total", "Events accepted over HTTP ingestion.",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 { return float64(t.Ingested()) }),
	{
		name: "spatialcrowd_codec_ingested_events_total", typ: "counter",
		help: "Events accepted over HTTP per wire codec.",
		sample: func(b *strings.Builder, tenant string, t *Tenant, _ engine.Stats, _ engine.QueueDepths) {
			for c := 0; c < numCodecs; c++ {
				writeSample(b, "spatialcrowd_codec_ingested_events_total", tenant,
					[]string{"codec", codecName(c)}, float64(t.codecEvents[c].Load()))
			}
		},
	},
	{
		name: "spatialcrowd_codec_ingested_bytes_total", typ: "counter",
		help: "Ingest wire bytes consumed per codec (JSON body bytes; binary frame payload bytes).",
		sample: func(b *strings.Builder, tenant string, t *Tenant, _ engine.Stats, _ engine.QueueDepths) {
			for c := 0; c < numCodecs; c++ {
				writeSample(b, "spatialcrowd_codec_ingested_bytes_total", tenant,
					[]string{"codec", codecName(c)}, float64(t.codecBytes[c].Load()))
			}
		},
	},
	counter("spatialcrowd_rejected_events_total", "Events turned away by admission control: per 429, the events of the submitted chunk past the accepted prefix.",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 { return float64(t.Rejected()) }),
	counter("spatialcrowd_tasks_priced_total", "Tasks run through a pricing strategy.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.TasksPriced) }),
	counter("spatialcrowd_quotes_total", "Price quotes emitted in quoted mode.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Quoted) }),
	counter("spatialcrowd_accepted_total", "Requester acceptances.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Accepted) }),
	counter("spatialcrowd_served_total", "Finalized task-worker assignments.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Served) }),
	counter("spatialcrowd_revenue_total", "Platform revenue: sum of distance * price over served tasks.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return st.Revenue }),
	counter("spatialcrowd_batches_total", "Closed non-empty pricing batches.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Batches) }),
	counter("spatialcrowd_late_events_total", "Events referencing unknown or already-settled targets.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Late) }),
	counter("spatialcrowd_strategy_errors_total", "Pricing batches dropped for violating the one-price-per-task contract.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.StrategyErrors) }),
	{
		name: "spatialcrowd_shard_tasks_total", typ: "counter",
		help: "Tasks priced per shard (per-shard throughput).",
		sample: func(b *strings.Builder, tenant string, _ *Tenant, st engine.Stats, _ engine.QueueDepths) {
			for i, n := range st.ShardTasks {
				writeSample(b, "spatialcrowd_shard_tasks_total", tenant,
					[]string{"shard", strconv.Itoa(i)}, float64(n))
			}
		},
	},
	{
		name: "spatialcrowd_shard_revenue_total", typ: "counter",
		help: "Revenue per shard.",
		sample: func(b *strings.Builder, tenant string, _ *Tenant, st engine.Stats, _ engine.QueueDepths) {
			for i, r := range st.ShardRevenue {
				writeSample(b, "spatialcrowd_shard_revenue_total", tenant,
					[]string{"shard", strconv.Itoa(i)}, r)
			}
		},
	},
	{
		name: "spatialcrowd_decision_latency_seconds", typ: "gauge",
		help: "Online P-square quantile estimates of decision latency.",
		sample: func(b *strings.Builder, tenant string, _ *Tenant, st engine.Stats, _ engine.QueueDepths) {
			writeSample(b, "spatialcrowd_decision_latency_seconds", tenant,
				[]string{"quantile", "0.5"}, st.P50Latency.Seconds())
			writeSample(b, "spatialcrowd_decision_latency_seconds", tenant,
				[]string{"quantile", "0.99"}, st.P99Latency.Seconds())
		},
	},
	gauge("spatialcrowd_router_queue_depth", "Events waiting in the router's bounded ingest queue.",
		func(_ *Tenant, _ engine.Stats, qd engine.QueueDepths) float64 { return float64(qd.Router) }),
	{
		name: "spatialcrowd_shard_queue_depth", typ: "gauge",
		help: "Events waiting per shard's bounded queue.",
		sample: func(b *strings.Builder, tenant string, _ *Tenant, _ engine.Stats, qd engine.QueueDepths) {
			for i, n := range qd.Shards {
				writeSample(b, "spatialcrowd_shard_queue_depth", tenant,
					[]string{"shard", strconv.Itoa(i)}, float64(n))
			}
		},
	},
	gauge("spatialcrowd_ingest_queue_capacity", "Fixed capacity of each bounded ingest queue (0 in deterministic mode).",
		func(_ *Tenant, _ engine.Stats, qd engine.QueueDepths) float64 { return float64(qd.Capacity) }),
	gauge("spatialcrowd_workers_pooled", "Workers currently waiting in shard pools.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Lifecycle.Pooled) }),
	counter("spatialcrowd_worker_onlines_total", "Fresh worker pool admissions.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Lifecycle.Onlines) }),
	counter("spatialcrowd_worker_migrations_total", "Completed cross-shard worker migrations.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 {
			return float64(st.Lifecycle.Migrations)
		}),
	counter("spatialcrowd_worker_retired_total", "Workers retired: assigned + expired + offline.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 {
			lc := st.Lifecycle
			return float64(lc.RetiredAssigned + lc.RetiredExpired + lc.RetiredOffline)
		}),
	counter("spatialcrowd_context_cache_hits_total", "Pricing windows whose context was reused from the previous window (amortization on).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.CtxHits) }),
	counter("spatialcrowd_context_cache_misses_total", "Pricing windows whose context was rebuilt from scratch (amortization on).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.CtxMisses) }),
	counter("spatialcrowd_price_cache_hits_total", "Pricing windows served from the cached price vector (amortization on).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.PriceHits) }),
	counter("spatialcrowd_price_cache_misses_total", "Pricing windows that invoked the strategy's Prices (amortization on).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.PriceMisses) }),
	counter("spatialcrowd_kd_incremental_total", "Always 0: the worker index is rebuilt per window (kept for dashboards built on it).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.KDIncremental) }),
	counter("spatialcrowd_kd_rebuilds_total", "Worker-index builds, one per window whose graph was not reused (amortization on, kd mode).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Cache.KDRebuilds) }),
	counter("spatialcrowd_window_stage_windows_total", "Priced windows behind spatialcrowd_window_stage_seconds_total.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return float64(st.Stages.Windows) }),
	{
		name: "spatialcrowd_window_stage_seconds_total", typ: "counter",
		help: "Wall time of the window close per stage, summed over shards (match and observe: immediately resolved windows only).",
		sample: func(b *strings.Builder, tenant string, _ *Tenant, st engine.Stats, _ engine.QueueDepths) {
			sg := st.Stages
			for _, stage := range []struct {
				name string
				d    time.Duration
			}{{"graph", sg.Graph}, {"context", sg.Context}, {"price", sg.Price}, {"match", sg.Match}, {"observe", sg.Observe}} {
				writeSample(b, "spatialcrowd_window_stage_seconds_total", tenant,
					[]string{"stage", stage.name}, stage.d.Seconds())
			}
		},
	},
	counter("spatialcrowd_quote_stream_dropped_total", "SSE frames dropped on slow quote-stream subscribers.",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 { return float64(t.hub.Dropped()) }),
	gauge("spatialcrowd_wal_last_lsn", "Last LSN appended to the tenant's write-ahead log (0 without a WAL).",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 { return float64(t.eng.WALLastLSN()) }),
	gauge("spatialcrowd_wal_durable_lsn", "Last WAL LSN covered by a successful fsync (0 without a WAL).",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 { return float64(t.eng.WALDurableLSN()) }),
	gauge("spatialcrowd_wal_segments", "Live segment files in the tenant's write-ahead log.",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 {
			return float64(t.eng.WALStats().Segments)
		}),
	gauge("spatialcrowd_wal_active_segment_bytes", "Bytes in the write-ahead log's active segment.",
		func(t *Tenant, _ engine.Stats, _ engine.QueueDepths) float64 {
			return float64(t.eng.WALStats().ActiveSize)
		}),
	gauge("spatialcrowd_events_per_second", "Engine event throughput since start.",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return st.EventsPerSec }),
	gauge("spatialcrowd_uptime_seconds", "Engine lifetime (start to close, or to now).",
		func(_ *Tenant, st engine.Stats, _ engine.QueueDepths) float64 { return st.Elapsed.Seconds() }),
}

// handleMetrics renders every tenant's snapshot in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := append([]string(nil), s.order...)
	tenants := make([]*Tenant, len(names))
	for i, n := range names {
		tenants[i] = s.tenants[n]
	}
	s.mu.RUnlock()
	sort.Strings(names) // scrape output is stable regardless of registration order
	byName := make(map[string]*Tenant, len(tenants))
	for _, t := range tenants {
		byName[t.name] = t
	}

	type snap struct {
		st engine.Stats
		qd engine.QueueDepths
	}
	snaps := make(map[string]snap, len(names))
	for _, n := range names {
		t := byName[n]
		snaps[n] = snap{st: t.eng.Stats(), qd: t.eng.QueueDepths()}
	}

	var b strings.Builder
	for _, fam := range metricFamilies {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		for _, n := range names {
			sn := snaps[n]
			fam.sample(&b, n, byName[n], sn.st, sn.qd)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
