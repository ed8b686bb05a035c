package main

// perLayer lists the metrics of single layers, in the order the traced run
// prints them. They have no bound: they explain a change in an end-to-end
// metric, they do not gate one. Where a workload bypasses a layer the
// human-readable report prints a dash; the last line, whose key set is fixed
// by BENCHMARK.json, carries 0 there.
var perLayer = []metricDef{
	// wire: the ingest codec, re-run over the pass's own request bodies.
	{name: "wire.decode_ns_per_event", unit: "ns", better: "lower", what: "binary: FrameReader.Next + engine.DecodeWireEvents over every body, per event"},
	{name: "wire.json_decode_ns_per_event", unit: "ns", better: "lower", what: "json: json.Decoder + WireEvent.Event over every body, per event"},
	{name: "wire.bytes_per_event", unit: "B", better: "lower", what: "request body bytes per event"},
	{name: "wire.frames", unit: "count", better: "lower", what: "binary batch frames sent (one per request)"},

	// server: seen from the client's two connections.
	{name: "server.posts", unit: "count", better: "lower", what: "ingest requests, retries included"},
	{name: "server.rejected_429", unit: "count", better: "lower", what: "requests answered 429"},
	{name: "server.retry_share", unit: "share", better: "lower", what: "events a 429 turned away / events sent"},
	{name: "server.post_p50_ms", unit: "ms", better: "lower", what: "request round trip, median"},
	{name: "server.post_p99_ms", unit: "ms", better: "lower", what: "request round trip, p99"},
	{name: "server.self_ns_per_event", unit: "ns", better: "lower", what: "request round trip per event minus wire decode and engine submit"},
	{name: "server.sse_lag_p50_ms", unit: "ms", better: "lower", what: "OnDecision (after the hub) to SSE receipt of the same decision, median"},
	{name: "server.sse_lag_p99_ms", unit: "ms", better: "lower", what: "the same, p99"},
	{name: "server.sse_dropped", unit: "count", better: "lower", what: "frames the quote hub dropped on the subscriber"},

	// wal: a timing wal.Store under engine.Config.WAL, in-process submit pass.
	{name: "wal.appends", unit: "count", better: "lower", what: "records appended"},
	{name: "wal.fsyncs", unit: "count", better: "lower", what: "segment fsyncs"},
	{name: "wal.appends_per_fsync", unit: "count", better: "higher", what: "group-commit size achieved"},
	{name: "wal.bytes_per_event", unit: "B", better: "lower", what: "segment bytes written per event"},
	{name: "wal.write_ns_per_event", unit: "ns", better: "lower", what: "time inside File.Write per event"},
	{name: "wal.fsync_p50_ms", unit: "ms", better: "lower", what: "File.Sync duration, median"},
	{name: "wal.fsync_p99_ms", unit: "ms", better: "lower", what: "File.Sync duration, p99"},
	{name: "wal.fsync_share", unit: "share", better: "lower", what: "time in File.Sync / time in engine submit"},
	{name: "wal.replay_ns_per_event", unit: "ns", better: "lower", what: "wal.Open + Replay + decode of the pass's log, per event"},
	{name: "wal.replay_mb_per_s", unit: "MB/s", better: "higher", what: "the same as log megabytes per second"},

	// engine: submit calls, queues, counters, checkpoint.
	{name: "engine.submit_ns_per_event", unit: "ns", better: "lower", what: "time inside (Try)SubmitBatch (+ SyncWAL) per event, children excluded"},
	{name: "engine.submit_blocked_share", unit: "share", better: "lower", what: "submit time spent waiting out ErrBusy"},
	{name: "engine.busy_rejects", unit: "count", better: "lower", what: "ErrBusy answers to TrySubmitBatch"},
	{name: "engine.router_queue_p99", unit: "count", better: "lower", what: "router queue depth, p99 of samples every 5 ms"},
	{name: "engine.shard_queue_p99", unit: "count", better: "lower", what: "deepest shard queue, p99 of samples every 5 ms"},
	{name: "engine.shard_skew", unit: "ratio", better: "lower", what: "max / mean tasks priced per shard"},
	{name: "engine.batches", unit: "count", better: "lower", what: "non-empty pricing batches closed"},
	{name: "engine.tasks_per_batch", unit: "count", better: "higher", what: "tasks priced per batch"},
	{name: "engine.late_events", unit: "count", better: "lower", what: "events for unknown or settled targets"},
	{name: "engine.close_drain_ms", unit: "ms", better: "lower", what: "Engine.Close after the last submit: draining what is still queued"},
	{name: "engine.checkpoint_ms", unit: "ms", better: "lower", what: "Engine.Checkpoint at the end of the stream"},
	{name: "engine.checkpoint_bytes", unit: "B", better: "lower", what: "size of that checkpoint"},
	{name: "engine.restore_ms", unit: "ms", better: "lower", what: "Engine.Restore of it into a fresh engine"},
	{name: "engine.alloc_bytes_per_event", unit: "B", better: "lower", what: "heap bytes allocated per event, in-process pass"},
	{name: "engine.allocs_per_event", unit: "count", better: "lower", what: "heap objects allocated per event, in-process pass"},
	{name: "engine.p2_p99_ms", unit: "ms", better: "lower", what: "the engine's own P-square p99 estimate, beside the measured one"},

	// window: the close as far as it can be seen from outside.
	{name: "window.close_p50_ms", unit: "ms", better: "lower", what: "window close, median (sharded: from the Prices call on, plus the re-run graph and context time)"},
	{name: "window.close_p99_ms", unit: "ms", better: "lower", what: "the same, p99"},
	{name: "window.close_share", unit: "share", better: "higher", what: "time in window close on the busiest lane / wall"},
	{name: "window.self_ns_per_task", unit: "ns", better: "lower", what: "close time not in price, observe, deliver, graph, context or matching, per task"},
	{name: "window.ctx_hit_rate", unit: "share", better: "higher", what: "context cache hits / windows (Engine.Stats)"},
	{name: "window.price_hit_rate", unit: "share", better: "higher", what: "price-vector cache hits / windows"},
	{name: "window.kd_incr_share", unit: "share", better: "higher", what: "k-d index maintained incrementally / windows"},

	// core, market, match: live spans plus stage re-runs on sampled windows.
	{name: "core.price_ns_per_task", unit: "ns", better: "lower", what: "Strategy.Prices per task"},
	{name: "core.observe_ns_per_task", unit: "ns", better: "lower", what: "Strategy.Observe per task"},
	{name: "core.context_ns_per_task", unit: "ns", better: "lower", what: "core.BuildContextScratch re-run on sampled windows, per task"},
	{name: "core.price_share", unit: "share", better: "lower", what: "time in Prices / time in window close"},
	{name: "market.graph_ns_per_task", unit: "ns", better: "lower", what: "the workload's graph builder re-run on sampled windows, per task (amortize on: as the k-d update from the window before)"},
	{name: "market.edges_per_task", unit: "count", better: "lower", what: "bipartite edges per task on sampled windows"},
	{name: "market.workers_per_window", unit: "count", better: "lower", what: "batch workers per sampled window and shard"},
	{name: "market.tasks_per_window", unit: "count", better: "lower", what: "tasks per sampled window and shard"},
	{name: "match.assign_ns_per_task", unit: "ns", better: "lower", what: "match.MaxWeightByLeftScratch re-run on sampled windows, per task (auto-decide)"},
	{name: "match.served_share", unit: "share", better: "higher", what: "served / accepted"},
	{name: "match.augment_ns_per_reply", unit: "ns", better: "lower", what: "match.Incremental.TryAugment re-run per accepting reply (quoted)"},
	{name: "match.reassign_share", unit: "share", better: "lower", what: "superseding decisions / scripted replies (quoted)"},

	// spatial: a counting Space on the road workload only.
	{name: "spatial.cellof_calls_per_event", unit: "count", better: "lower", what: "Space.CellOf calls per event"},
	{name: "spatial.cellof_ns_per_call", unit: "ns", better: "lower", what: "Space.CellOf, one call in 32 timed"},
	{name: "spatial.range_ns_per_task", unit: "ns", better: "lower", what: "time in Space.CellsInRange(Append) per task"},
	{name: "spatial.dist_calls_per_task", unit: "count", better: "lower", what: "Space.Dist calls at run time per task (expected 0)"},
	{name: "spatial.setup_dist_calls", unit: "count", better: "lower", what: "shortest-path lookups the generator made at set-up (cache hits + misses)"},
	{name: "spatial.setup_dist_ns_per_call", unit: "ns", better: "lower", what: "RoadSpace.Dist re-run over the tasks' trips on a fresh space, per call"},
	{name: "spatial.road_cache_hit_rate", unit: "share", better: "higher", what: "road distance cache hits / lookups at set-up"},

	// validity of the run itself.
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", what: "generator's own delay per chunk, p99, on a paced pass over a quarter of the stream"},
	{name: "trace.overhead_share", unit: "share", better: "lower", what: "traced saturation wall / mean untraced wall (one pass before, one after) - 1"},
	{name: "trace.unattributed_share", unit: "share", better: "lower", what: "share of the traced pass during which the busiest lane had no span open"},
}

// layerOf is the part of a metric name before the first dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}
