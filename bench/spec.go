package main

import "spatialcrowd/bench/gen"

// RunSeconds is BENCHMARK.json's run_seconds: about how long the measured
// passes of one run last together, averaged over the workloads (three
// saturation passes plus the same stream again at r50 and at r80). A run's
// stream is sized for it; -seconds scales the stream in proportion.
const RunSeconds = 18

// workload is one named input plus the stack configuration it drives.
type workload struct {
	name string
	why  string
	kind gen.Kind
	// windows is the stream length at RunSeconds; other run lengths scale it
	// in proportion. Every workload keeps it at 2000 or more, so that p99 of
	// a paced phase has at least ten independent windows beyond it.
	windows int
	// winStep rounds a scaled window count: the Beijing generators' horizon
	// is 120 periods and re-slicing cuts each into a whole number.
	winStep int
	// satRate is the rate the paced phases are shares of (r50 = 0.5 x, r80 =
	// 0.8 x), in events per second to two significant digits: the median
	// closed-loop rate of the saturation phase at the commit that added the
	// benchmark, on the reference box — except on city-steady, see there. It
	// is frozen: changing it is a change to the benchmark, never automatic.
	satRate float64

	http      bool   // loopback HTTP + SSE instead of in-process calls
	codec     string // "binary" | "json" (http only)
	shards    int
	wal       bool
	cellIndex bool // cell-index graphs instead of k-d
	amortize  bool
}

// The reference box for satRate: 2 vCPU (nproc = 2), GOMAXPROCS = 2, go1.24.0
// linux/amd64, ext4 on a virtio disk; rates taken 2026-09-25.
var workloads = []*workload{
	{
		name: "dense-grid",
		why:  "in-process deterministic engine on thick synthetic windows: window close (graph, pricing, matching) is at least 80 % of the work and wire, server and wal do none",
		kind: gen.DenseGrid, windows: 2400, winStep: 1, satRate: 550e3,
		shards: 0, amortize: true,
	},
	{
		name: "ingest-wal",
		why:  "binary loopback ingest into a file WAL with group commit, lifecycle events 10:1 over tasks on thin windows: the per-event path dominates and a crash-restart gives recover_s",
		kind: gen.IngestWAL, windows: 2000, winStep: 1, satRate: 150e3,
		http: true, codec: "binary", shards: 2, wal: true, cellIndex: true,
	},
	{
		name: "road-quoted",
		why:  "NDJSON in and SSE quotes out over a road-network space in quoted mode: JSON decode, one augmentation per reply and k-d-snapped cells instead of the batch path; road set-up cost lands in setup_s",
		kind: gen.RoadQuoted, windows: gen.RoadWindows, winStep: 120, satRate: 150e3,
		http: true, codec: "json", shards: 2, cellIndex: true,
	},
	{
		// Frozen at half the closed-loop rate (140 k/s). Both shards are
		// CPU-bound here, and a generator sharing the two cores with them is
		// scheduled late: with r80 at 112 k/s (80 % of the closed loop) its own
		// delays were 6-13 % of the schedule in two runs of six (limit 5 %),
		// at 80 k/s still 7-8 % in two of six, at 56 k/s never above 2 %.
		name: "city-steady",
		why:  "binary loopback ingest of Beijing-rush hotspots with a long-lived fleet drifting 2 % per window: the production-shaped canary, where the incremental k-d tree and the cache tiers meet realistic churn",
		kind: gen.CitySteady, windows: gen.CityWindows, winStep: 120, satRate: 70e3,
		http: true, codec: "binary", shards: 2, amortize: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// windowsFor scales the stream to a run of the given length.
func (w *workload) windowsFor(seconds float64) int {
	n := int(float64(w.windows)*seconds/RunSeconds/float64(w.winStep)+0.5) * w.winStep
	if n < w.winStep {
		n = w.winStep
	}
	if n < 4 {
		n = 4
	}
	return n
}

// metricDef is one named number the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	// bound is the worsening, as a share of the parent's median, beyond which
	// the driver rejects a change. Zero on per-layer metrics, and on the
	// end-to-end metrics BENCHMARK.json cannot list; ungated then says why.
	bound   float64
	ungated string
	what    string
}

// unresolved is why the three tail metrics are printed but not gated. They
// are what their names say: the phase's whole-pass p99 over raw samples. On
// the two-core reference box that number reads the host more than the
// program: the virtual machine loses the processor for 1-8 ms 4-20 times a
// second and its disk stalls for 10-200 ms every few seconds, a paced phase
// at 50-80 % load needs 2-5 times a stall's length to work off the backlog,
// so between 1 % and 10 % of a phase's windows sit in a backlog and the p99
// falls on either side of that edge from run to run. Over ten seeds its
// quartiles lie 0.1 to 11 medians apart (table in README.md); the driver
// refuses a metric whose spread exceeds its bound, and no bound may exceed
// 0.25. A phase long enough to average over the stalls does not fit 92 runs
// into the driver's hour.
const unresolved = "unresolved on the reference box: ten-seed spread above the largest bound the contract allows"

// endToEnd lists the nine metrics a user of the service would see. Those
// with a bound are BENCHMARK.json's end_to_end list and the last line of an
// untraced run; all nine are printed. The bounds are not the issue's (+10 %,
// -5 % for throughput) but the contract's cap: the driver wants a metric's
// ten-seed spread under its bound and asks for a third of it, and on the
// reference box that spread is 0.05-0.08 while the host is quiet and 0.15-0.4
// during the minutes a neighbour is not (tables in README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, what: "median of three set-ups: generate, calibrate BaseP, encode bodies, start the stack, warm up"},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.25, what: "saturation passes: events acknowledged / wall time from first send to last decision received, median of the three passes"},
	{name: "decision_p50_ms", unit: "ms", better: "lower", bound: 0.25, what: "r50 phase: intended send time of the window-closing tick to receipt of each decision of that window, median"},
	{name: "decision_p99_ms", unit: "ms", better: "lower", ungated: unresolved, what: "r50 phase: the same, p99 over the phase's raw samples"},
	{name: "decision_p99_ms.r80", unit: "ms", better: "lower", ungated: unresolved, what: "r80 phase: the same p99 at 80 % of the frozen saturation rate"},
	{name: "accept_p50_ms", unit: "ms", better: "lower", bound: 0.25, what: "r50 phase: intended send time of the event that resolves the requester's answer to receipt of the resulting assignment decision, median"},
	{name: "accept_p99_ms", unit: "ms", better: "lower", ungated: unresolved, what: "r50 phase: the same, p99 over the phase's raw samples"},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25, what: "a replacement reaching the state of a stack that crashed: a second server over the abandoned WAL directory until its ledger is the first's (ingest-wal, median of 3); without a WAL, the stream recomputed in process at full speed (others; repeated until a second is spent, median)"},
	{name: "failed_share", unit: "share", better: "lower", ungated: "bounded absolutely (+0.001) and 0 at the seed, which a share of the parent's median cannot express; the driver reads failed and attempted off the last line", what: "operations that failed / operations attempted, over all phases"},
}

// failedShareBound is failed_share's bound: absolute, not relative.
const failedShareBound = 0.001

// gated is the part of endToEnd the driver reads and bounds.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.bound > 0 {
			out = append(out, d)
		}
	}
	return out
}
