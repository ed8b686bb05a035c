package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/server"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus parses the text exposition format far enough to verify
// the contract: every non-comment line must be `name{labels} value` with a
// parseable float, every metric must be preceded by HELP and TYPE comments.
func parsePrometheus(t *testing.T, text string) []promSample {
	t.Helper()
	var samples []promSample
	typed := map[string]bool{}
	helped := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "summary") {
				t.Errorf("bad TYPE line: %s", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		nameAndLabels := line[:sp]
		s := promSample{labels: map[string]string{}, value: v}
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			s.name = nameAndLabels[:i]
			inner := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			for _, pair := range strings.Split(inner, ",") {
				if pair == "" {
					continue
				}
				kv := strings.SplitN(pair, "=", 2)
				if len(kv) != 2 {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				s.labels[kv[0]] = strings.Trim(kv[1], `"`)
			}
		} else {
			s.name = nameAndLabels
		}
		if !typed[s.name] || !helped[s.name] {
			t.Errorf("metric %s has no preceding HELP/TYPE", s.name)
		}
		samples = append(samples, s)
	}
	return samples
}

func findSample(samples []promSample, name string, want map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return promSample{}, false
}

// TestMetricsExposition drives traffic through two tenants and asserts the
// /metrics page carries, per tenant: p50/p99 decision latency, per-shard
// throughput, ingest queue depth/capacity, and the rejected-event counter —
// all in parseable Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	in := testInstance(t, 1200, 400, 50)
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{
		{Name: "alpha", Engine: flatEngineConfig(in, 2)},
		{Name: "beta", Engine: flatEngineConfig(in, 3)},
	}})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, tenant := range []string{"alpha", "beta"} {
		if _, err := postTrace(hs.URL, tenant, "json", in, 400, engine.ReplayOpts{}); err != nil {
			t.Fatalf("loadgen %s: %v", tenant, err)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, string(raw))
	if len(samples) == 0 {
		t.Fatal("no samples parsed from /metrics")
	}

	shardsOf := map[string]int{"alpha": 2, "beta": 3}
	for tenant, shards := range shardsOf {
		lbl := map[string]string{"tenant": tenant}

		for _, q := range []string{"0.5", "0.99"} {
			s, ok := findSample(samples, "spatialcrowd_decision_latency_seconds", map[string]string{"tenant": tenant, "quantile": q})
			if !ok {
				t.Errorf("[%s] no decision latency quantile %s", tenant, q)
			} else if s.value <= 0 {
				t.Errorf("[%s] latency quantile %s is %v, want > 0", tenant, q, s.value)
			}
		}

		// Per-shard throughput: one tasks sample per shard, summing to the
		// tenant's priced tasks.
		var shardSum float64
		for i := 0; i < shards; i++ {
			s, ok := findSample(samples, "spatialcrowd_shard_tasks_total", map[string]string{"tenant": tenant, "shard": strconv.Itoa(i)})
			if !ok {
				t.Errorf("[%s] missing shard_tasks_total{shard=%d}", tenant, i)
				continue
			}
			shardSum += s.value
		}
		if priced, ok := findSample(samples, "spatialcrowd_tasks_priced_total", lbl); !ok {
			t.Errorf("[%s] missing tasks_priced_total", tenant)
		} else if shardSum != priced.value {
			t.Errorf("[%s] shard task sum %v != tasks_priced_total %v", tenant, shardSum, priced.value)
		}
		if _, ok := findSample(samples, "spatialcrowd_shard_tasks_total", map[string]string{"tenant": tenant, "shard": strconv.Itoa(shards)}); ok {
			t.Errorf("[%s] unexpected extra shard %d", tenant, shards)
		}

		for _, name := range []string{
			"spatialcrowd_router_queue_depth",
			"spatialcrowd_ingest_queue_capacity",
			"spatialcrowd_rejected_events_total",
			"spatialcrowd_http_ingested_total",
			"spatialcrowd_revenue_total",
			"spatialcrowd_events_total",
			"spatialcrowd_context_cache_hits_total",
			"spatialcrowd_context_cache_misses_total",
			"spatialcrowd_price_cache_hits_total",
			"spatialcrowd_price_cache_misses_total",
			"spatialcrowd_kd_incremental_total",
			"spatialcrowd_kd_rebuilds_total",
		} {
			if _, ok := findSample(samples, name, lbl); !ok {
				t.Errorf("[%s] missing metric %s", tenant, name)
			}
		}

		// Stage timings: one counter per stage, and the stages every window
		// runs (graph, context, price) have accumulated time over a non-zero
		// window count.
		if w, ok := findSample(samples, "spatialcrowd_window_stage_windows_total", lbl); !ok || w.value <= 0 {
			t.Errorf("[%s] window_stage_windows_total missing or zero", tenant)
		}
		for _, stage := range []string{"graph", "context", "price", "match", "observe"} {
			s, ok := findSample(samples, "spatialcrowd_window_stage_seconds_total", map[string]string{"tenant": tenant, "stage": stage})
			if !ok {
				t.Errorf("[%s] missing window_stage_seconds_total{stage=%s}", tenant, stage)
			} else if s.value <= 0 && stage != "match" && stage != "observe" {
				t.Errorf("[%s] window_stage_seconds_total{stage=%s} = %v, want > 0", tenant, stage, s.value)
			}
		}

		if ing, ok := findSample(samples, "spatialcrowd_http_ingested_total", lbl); !ok || ing.value <= 0 {
			t.Errorf("[%s] http_ingested_total missing or zero", tenant)
		}
		if cap, ok := findSample(samples, "spatialcrowd_ingest_queue_capacity", lbl); !ok || cap.value <= 0 {
			t.Errorf("[%s] ingest_queue_capacity missing or zero", tenant)
		}
	}

	for _, tenant := range []string{"alpha", "beta"} {
		if rev, ok := findSample(samples, "spatialcrowd_revenue_total", map[string]string{"tenant": tenant}); !ok || rev.value <= 0 {
			t.Errorf("[%s] revenue metric missing or zero", tenant)
		}
	}

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}
