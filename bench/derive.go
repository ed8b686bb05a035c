package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"spatialcrowd/bench/trace"
	"spatialcrowd/internal/spatial"
)

// budgetRow is one layer's line in the budget table: nanoseconds of work
// per event of the stream, and its share of all attributed work.
type budgetRow struct {
	layer string
	ns    float64
}

// derive computes every per-layer metric. A metric whose layer the workload
// bypasses is marked absent.
func (tr *tracedResult) derive(e *env, t *tracer, plainWall float64, traced *phase, sub *submitPass, lateP99 float64,
	spans []trace.Span, allocB, allocN uint64) error {
	m, w, s := tr.metrics, e.w, e.stream
	events, tasks := float64(s.NumEvents), float64(s.NumTasks)
	tot := trace.Totals(spans)
	wall := float64(traced.wall)
	st := t.stages()
	perTask := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	absent := func(names ...string) {
		for _, n := range names {
			tr.absent[n] = true
		}
	}
	absentLayer := func(layer string) {
		for _, d := range perLayer {
			if layerOf(d.name) == layer {
				tr.absent[d.name] = true
			}
		}
	}

	// wire
	var decodeNS float64
	if w.http {
		n, d, err := e.decodeBodies()
		if err != nil {
			return fmt.Errorf("decode re-run: %w", err)
		}
		decodeNS = float64(d) / float64(n)
		var bytesSent int
		for _, b := range e.bodies {
			bytesSent += len(b)
		}
		m["wire.bytes_per_event"] = float64(bytesSent) / events
		if w.codec == "binary" {
			m["wire.decode_ns_per_event"] = decodeNS
			m["wire.frames"] = float64(len(e.bodies))
			absent("wire.json_decode_ns_per_event")
		} else {
			m["wire.json_decode_ns_per_event"] = decodeNS
			absent("wire.decode_ns_per_event", "wire.frames")
		}
	} else {
		absentLayer("wire")
	}

	// engine.submit and wal, from the in-process submit pass (http) or the
	// traced pass itself (in-process workload).
	var submitNS, walNS float64 // per event
	if sub != nil {
		submitNS = float64(sub.submitNS-sub.blockedNS) / events // waiting out ErrBusy is the shards' time, not the call's
		m["engine.submit_blocked_share"] = float64(sub.blockedNS) / float64(sub.submitNS)
		m["engine.busy_rejects"] = float64(sub.busy)
		m["engine.close_drain_ms"] = float64(sub.closeDur) / 1e6
		m["engine.checkpoint_ms"] = float64(sub.ckptDur) / 1e6
		m["engine.checkpoint_bytes"] = float64(sub.ckptBytes)
		m["engine.restore_ms"] = float64(sub.restoreDur) / 1e6
		m["engine.alloc_bytes_per_event"] = float64(sub.allocBytes) / events
		m["engine.allocs_per_event"] = float64(sub.allocs) / events
	} else {
		m["engine.close_drain_ms"] = float64(traced.closeDur-traced.ckptDur) / 1e6
		m["engine.checkpoint_ms"] = float64(traced.ckptDur) / 1e6
		fi, err := os.Stat(traced.ckpt)
		if err != nil {
			return err
		}
		m["engine.checkpoint_bytes"] = float64(fi.Size())
		t0 := time.Now()
		fresh, err := e.start(stackOpts{noConsumer: true, restore: traced.ckpt})
		if err != nil {
			return fmt.Errorf("restore of the traced pass's checkpoint: %w", err)
		}
		m["engine.restore_ms"] = float64(time.Since(t0)) / 1e6
		if err := fresh.stop(); err != nil {
			return err
		}
		m["engine.alloc_bytes_per_event"] = float64(allocB) / events
		m["engine.allocs_per_event"] = float64(allocN) / events
		absent("engine.submit_blocked_share", "engine.busy_rejects") // SubmitBatch blocks inside, unseen
	}
	if sub != nil && sub.store != nil {
		ts := sub.store
		var syncNS int64
		syncMS := make([]float64, len(ts.sync))
		for i, d := range ts.sync {
			syncNS += d
			syncMS[i] = float64(d) / 1e6
		}
		walNS = float64(ts.wrNS+syncNS) / events
		m["wal.appends"] = float64(ts.wrN)
		m["wal.fsyncs"] = float64(len(ts.sync))
		m["wal.appends_per_fsync"] = float64(ts.wrN) / float64(len(ts.sync))
		m["wal.bytes_per_event"] = float64(ts.wrB) / events
		m["wal.write_ns_per_event"] = float64(ts.wrNS) / events
		m["wal.fsync_p50_ms"], m["wal.fsync_p99_ms"] = pct(syncMS, 0.5), pct(syncMS, 0.99)
		m["wal.fsync_share"] = float64(syncNS) / float64(sub.submitNS)
		n, d, err := replayWAL(sub.walDir)
		if err != nil {
			return fmt.Errorf("replay of the submit pass's log: %w", err)
		}
		m["wal.replay_ns_per_event"] = float64(d) / float64(n)
		m["wal.replay_mb_per_s"] = float64(ts.wrB) / 1e6 / d.Seconds()
	} else {
		absentLayer("wal")
	}

	// server, from the client's side of the traced pass.
	var postNS, serverSelf float64
	if w.http {
		rep := traced.rep
		post := make([]float64, len(rep.Sent))
		for c := range post {
			post[c] = float64(rep.Acked[c]-rep.Sent[c]) / 1e6
		}
		postNS = float64(tot["server.post"].Dur) / events
		serverSelf = postNS - decodeNS - submitNS
		if serverSelf < 0 {
			serverSelf = 0
		}
		m["server.posts"] = float64(rep.Posts)
		m["server.rejected_429"] = float64(rep.Busy)
		m["server.retry_share"] = float64(rep.Rejected) / events
		m["server.post_p50_ms"], m["server.post_p99_ms"] = pct(post, 0.5), pct(post, 0.99)
		m["server.self_ns_per_event"] = serverSelf
		m["server.sse_dropped"] = float64(traced.sseDropped)
		soff := t.rec.At(traced.consumerEpoch)
		var lag []float64
		for _, sm := range traced.samples {
			if priced := sm.Quoted || !s.Quoted; priced && !sm.Recovered && t.hookAt[sm.TaskID] > 0 {
				lag = append(lag, float64(soff+sm.At-t.hookAt[sm.TaskID])/1e6)
			}
		}
		m["server.sse_lag_p50_ms"], m["server.sse_lag_p99_ms"] = pct(lag, 0.5), pct(lag, 0.99)
	} else {
		absentLayer("server")
	}

	// engine counters and queues.
	es := traced.stats
	var rq, sq []float64
	for _, q := range traced.queues {
		rq = append(rq, float64(q.Router))
		sq = append(sq, float64(q.MaxShard))
	}
	m["engine.router_queue_p99"], m["engine.shard_queue_p99"] = pct(rq, 0.99), pct(sq, 0.99)
	var maxT, sumT float64
	for _, n := range es.ShardTasks {
		sumT += float64(n)
		if float64(n) > maxT {
			maxT = float64(n)
		}
	}
	if sumT > 0 {
		m["engine.shard_skew"] = maxT / (sumT / float64(len(es.ShardTasks)))
	}
	m["engine.batches"] = float64(es.Batches)
	if es.Batches > 0 {
		m["engine.tasks_per_batch"] = float64(es.TasksPriced) / float64(es.Batches)
	}
	m["engine.late_events"] = float64(es.Late)
	m["engine.p2_p99_ms"] = float64(es.P99Latency) / 1e6

	// window, core, market, match.
	close_, price, observe, deliver := tot["window.close"], tot["core.price"], tot["core.observe"], tot["engine.deliver"]
	prePerWindow := 0.0 // graph + context, which a sharded close runs before the first visible call
	if st.windows > 0 && w.shards > 0 {
		prePerWindow = float64(st.graphNS+st.ctxNS) / float64(st.windows)
	}
	var closeMS []float64
	laneClose := map[string]float64{}
	for _, sp := range spans {
		if sp.Name == "window.close" {
			d := float64(sp.Dur()) + prePerWindow
			closeMS = append(closeMS, d/1e6)
			laneClose[sp.Lane] += d
		}
	}
	var busiest float64
	for _, d := range laneClose {
		if d > busiest {
			busiest = d
		}
	}
	m["window.close_p50_ms"], m["window.close_p99_ms"] = pct(closeMS, 0.5), pct(closeMS, 0.99)
	m["window.close_share"] = busiest / wall
	if m["window.close_share"] > 1 {
		// The re-run graph and context stages run cache-cold and can cost
		// more than they did live; a lane cannot be busier than always.
		m["window.close_share"] = 1
	}
	graphPT, ctxPT := perTask(st.graphNS, st.tasks), perTask(st.ctxNS, st.tasks)
	assignPT := perTask(st.assignNS, st.tasks)
	closeTotal := float64(close_.Dur) + prePerWindow*float64(close_.Count)
	closeSelf := closeTotal - float64(price.Dur+observe.Dur+deliver.Dur) - (graphPT+ctxPT+assignPT)*tasks
	if s.Quoted {
		// Observe and the augmentations run outside the quoted close.
		closeSelf = closeTotal - float64(price.Dur+deliver.Dur) - (graphPT+ctxPT)*tasks
	}
	if closeSelf < 0 {
		closeSelf = 0
	}
	m["window.self_ns_per_task"] = closeSelf / tasks
	c := es.Cache
	if n := c.CtxHits + c.CtxMisses; n > 0 {
		m["window.ctx_hit_rate"] = float64(c.CtxHits) / float64(n)
		m["window.price_hit_rate"] = float64(c.PriceHits) / float64(c.PriceHits+c.PriceMisses)
	} else {
		absent("window.ctx_hit_rate", "window.price_hit_rate") // Amortize off
	}
	if n := c.KDIncremental + c.KDRebuilds; n > 0 {
		m["window.kd_incr_share"] = float64(c.KDIncremental) / float64(n)
	} else {
		absent("window.kd_incr_share") // cell-index graphs: no k-d index
	}
	m["core.price_ns_per_task"] = float64(price.Dur) / tasks
	m["core.observe_ns_per_task"] = float64(observe.Dur) / tasks
	m["core.context_ns_per_task"] = ctxPT
	if closeTotal > 0 {
		m["core.price_share"] = float64(price.Dur) / closeTotal
	}
	m["market.graph_ns_per_task"] = graphPT
	if st.tasks > 0 {
		m["market.edges_per_task"] = float64(st.edges) / float64(st.tasks)
		m["market.workers_per_window"] = float64(st.workers) / float64(st.windows)
		m["market.tasks_per_window"] = float64(st.tasks) / float64(st.windows)
	}
	if es.Accepted > 0 {
		m["match.served_share"] = float64(es.Served) / float64(es.Accepted)
	}
	var augmentTotal float64
	if s.Quoted {
		absent("match.assign_ns_per_task")
		if st.accepts > 0 {
			m["match.augment_ns_per_reply"] = float64(st.augmentNS) / float64(st.accepts)
			augmentTotal = m["match.augment_ns_per_reply"] * float64(es.Accepted)
		}
		extra := len(traced.samples) - int(traced.owedSeen)
		m["match.reassign_share"] = float64(extra) / float64(s.NumReplies)
	} else {
		m["match.assign_ns_per_task"] = assignPT
		absent("match.augment_ns_per_reply", "match.reassign_share")
	}

	// spatial
	if cs := t.space; cs != nil {
		m["spatial.cellof_calls_per_event"] = float64(cs.cellOf.Load()) / events
		if n := cs.cellOfTimed.Load(); n > 0 {
			m["spatial.cellof_ns_per_call"] = float64(cs.cellOfNS.Load()) / float64(n)
		}
		if n := cs.rngTimed.Load(); n > 0 {
			m["spatial.range_ns_per_task"] = float64(cs.rngNS.Load()) / float64(n) * float64(cs.rng.Load()) / tasks
		}
		m["spatial.dist_calls_per_task"] = float64(cs.dist.Load()) / tasks
		hits, misses := s.Road.CacheStats()
		m["spatial.setup_dist_calls"] = float64(hits + misses)
		if hits+misses > 0 {
			m["spatial.road_cache_hit_rate"] = float64(hits) / float64(hits+misses)
		}
		fresh, err := spatial.NewRoadSpace(s.Road.Network(), s.Road.NumCells())
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, p := range s.Periods {
			for _, task := range p.Tasks {
				fresh.Dist(task.Origin, task.Dest)
			}
		}
		m["spatial.setup_dist_ns_per_call"] = float64(time.Since(t0)) / tasks
	} else {
		absentLayer("spatial")
	}

	// engine.submit's own time: the call minus what the WAL did inside it
	// (http) or minus the window close it ran inline (deterministic).
	engineSelf := submitNS - walNS
	if sub == nil {
		engineSelf = float64(tot["engine.submit"].Self) / events
	}
	if engineSelf < 0 {
		engineSelf = 0
	}
	m["engine.submit_ns_per_event"] = engineSelf

	// validity
	m["loadgen.late_p99_ms"] = lateP99
	m["trace.overhead_share"] = wall/plainWall - 1
	var cover int64
	for _, d := range trace.LaneCover(spans) {
		if d > cover {
			cover = d
		}
	}
	for lane, d := range laneClose { // a sharded close starts before its first visible call
		if int64(d) > cover && lane != "" {
			cover = int64(d)
		}
	}
	m["trace.unattributed_share"] = 1 - float64(cover)/wall
	if m["trace.unattributed_share"] < 0 {
		m["trace.unattributed_share"] = 0
	}

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok && !tr.absent[d.name] {
			m[d.name] = 0 // the layer ran but had nothing to count
		}
	}

	// The budget: nanoseconds of attributed work per event of the stream,
	// by layer.
	perEvent := func(perTaskNS float64) float64 { return perTaskNS * tasks / events }
	tr.budget = []budgetRow{
		{"wire", decodeNS},
		{"server", serverSelf},
		{"wal", walNS},
		{"engine", engineSelf + float64(deliver.Dur)/events},
		{"window", perEvent(closeSelf / tasks)},
		{"core", float64(price.Dur+observe.Dur)/events + perEvent(ctxPT)},
		{"market", perEvent(graphPT)},
		{"match", perEvent(assignPT) + augmentTotal/events},
	}
	for _, r := range tr.budget {
		tr.totalBusy += r.ns
	}
	return nil
}

func (tr *tracedResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (traced)  seed %d  %d windows, %d events (%d tasks, %d scripted replies)\n",
		tr.w.name, tr.seed, tr.stream.windows, tr.stream.events, tr.stream.tasks, tr.stream.replies)
	fmt.Fprintf(w, "   %d spans written to %s\n", tr.spans, tr.tracePath)
	printMetrics(w, perLayer, tr.metrics, tr.absent)
	fmt.Fprintf(w, "   budget, ns of attributed work per event (share of %.0f ns):\n", tr.totalBusy)
	for _, r := range tr.budget {
		fmt.Fprintf(w, "     %-8s %9.1f  %5.1f%%\n", r.layer, r.ns, 100*r.ns/tr.totalBusy)
	}
}
