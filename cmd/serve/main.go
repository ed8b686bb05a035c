// Command serve runs workloads through the streaming dispatch engine
// (internal/engine) in two modes:
//
//   - Replay (default): ingest a generated workload in-process as an event
//     stream and report sustained throughput, decision-latency quantiles,
//     and revenue — the online counterpart of cmd/experiments.
//   - Listen (-listen): host the engine behind the network-facing dispatch
//     service (internal/server): HTTP ingestion with admission control,
//     streaming quote delivery, one isolated engine per -tenants city,
//     Prometheus /metrics, and graceful checkpointed drain on SIGTERM.
//
// Usage:
//
//	serve                         # default synthetic replay, MAPS, auto shards
//	serve -strategy sdr -shards 8
//	serve -beijing rush -duration 15
//	serve -space road             # road-network backend: street-snapped workload
//	serve -det                    # deterministic inline engine (one shard, no goroutines)
//	serve -mobility 0.3           # synthetic worker mobility: moves + cross-shard migrations
//	serve -requests 100000 -workers 25000
//	serve -checkpoint-every 100   # periodic crash-safe checkpoints to -checkpoint-file
//	serve -restore serve.ckpt     # resume an interrupted replay from a checkpoint
//	serve -wal-dir serve-wal      # durable write-ahead log: kill -9 anywhere, rerun to recover exactly
//	serve -listen :8080           # network mode: one tenant city, HTTP ingestion
//	serve -listen :8080 -tenants beijing,shanghai -checkpoint-dir /var/lib/spatialcrowd
//	serve -selftest               # loopback smoke: server + load generator + revenue check
//
// In replay mode SIGINT/SIGTERM write a final crash-safe checkpoint to
// -checkpoint-file (when -checkpoint-every is enabled) before exiting, so
// an interrupted replay resumes with -restore exactly where it stopped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"

	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/exp"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/spatial"
	"spatialcrowd/internal/wal"
	"spatialcrowd/internal/workload"
)

// options collects the parsed flags shared by the replay, listen, and
// selftest modes.
type options struct {
	workers, requests, periods, gridSide int
	beijing                              string
	duration, scale                      int
	strategy, space                      string
	shards, window                       int
	det                                  bool
	mobility                             float64
	seed                                 int64
	probes                               int
	amortize                             bool

	ckptEvery int
	ckptFile  string
	restore   string
	walDir    string
	walSync   int

	listen   string
	tenants  string
	quoted   bool
	ckptDir  string
	selftest bool
	genChunk int
	codec    string
}

func main() {
	var o options
	flag.IntVar(&o.workers, "workers", 5000, "synthetic worker count |W|")
	flag.IntVar(&o.requests, "requests", 20000, "synthetic request count |R|")
	flag.IntVar(&o.periods, "periods", 400, "synthetic horizon T")
	flag.IntVar(&o.gridSide, "grid", 10, "synthetic grid side (G = side^2 cells)")
	flag.StringVar(&o.beijing, "beijing", "", "replay a Beijing-like dataset instead: rush or night")
	flag.IntVar(&o.duration, "duration", 15, "Beijing worker duration delta_w in periods")
	flag.IntVar(&o.scale, "scale", 1, "divide Beijing population sizes by this factor")
	flag.StringVar(&o.strategy, "strategy", "maps", "pricing strategy: maps, basep, sdr, sde")
	flag.StringVar(&o.space, "space", "grid", "spatial backend: grid | road (road serves the Beijing-like workload, rush unless -beijing night)")
	flag.IntVar(&o.shards, "shards", 0, "shard goroutines (market partitions); 0 = auto (min(GOMAXPROCS, cells), at least 1)")
	flag.IntVar(&o.window, "window", 1, "periods per pricing batch")
	flag.BoolVar(&o.det, "det", false, "deterministic inline engine: one shard in the caller's goroutine (ignores -shards)")
	flag.Float64Var(&o.mobility, "mobility", 0, "per-worker per-period move probability (0 disables the mobility trace)")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed")
	flag.IntVar(&o.probes, "probes", 200, "base-pricing calibration probes per price")
	amortize := flag.String("amortize", "on", "fingerprint-gated window caching: on | off (results are bit-identical either way)")

	flag.IntVar(&o.ckptEvery, "checkpoint-every", 0, "write a crash-safe engine checkpoint every k periods (0 disables; SIGINT/SIGTERM also snapshot when enabled)")
	flag.StringVar(&o.ckptFile, "checkpoint-file", "serve.ckpt", "checkpoint path for -checkpoint-every and signal-triggered snapshots")
	flag.StringVar(&o.restore, "restore", "", "restore the engine from this checkpoint and resume the replay after its last period")
	flag.StringVar(&o.walDir, "wal-dir", "", "durable write-ahead log directory: every event is appended before it is applied and the run auto-recovers from the log (plus -restore snapshot) on restart; network mode gives each tenant <dir>/<tenant>/")
	flag.IntVar(&o.walSync, "wal-sync", 64, "fsync the WAL once a submitted batch leaves this many events unsynced (group commit); 1 fsyncs every batch")

	flag.StringVar(&o.listen, "listen", "", "network mode: serve the dispatch HTTP API on this address (e.g. :8080) instead of replaying")
	flag.StringVar(&o.tenants, "tenants", "city", "comma-separated tenant (city) names for -listen, one isolated engine each")
	flag.BoolVar(&o.quoted, "quoted", false, "network mode: quote prices and wait for decision events instead of auto-deciding from valuations")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "network mode: write <dir>/<tenant>.ckpt on graceful drain (empty disables)")
	flag.BoolVar(&o.selftest, "selftest", false, "loopback smoke test: start a server on a random port, drive it with the load generator over BOTH wire codecs, verify revenue against an in-process replay")
	flag.IntVar(&o.genChunk, "loadgen-chunk", 5000, "selftest load-generator events per POST")
	flag.StringVar(&o.codec, "codec", "", "ingest wire codec: json | binary (network mode restricts every tenant to it — empty accepts both; selftest always verifies both and reports the selected one)")
	flag.Parse()

	switch o.codec {
	case "", "json", "binary":
	default:
		fatal(fmt.Errorf("unknown -codec %q (want json or binary)", o.codec))
	}

	switch strings.ToLower(*amortize) {
	case "on":
		o.amortize = true
	case "off":
		o.amortize = false
	default:
		fatal(fmt.Errorf("unknown -amortize value %q (want on or off)", *amortize))
	}

	switch {
	case o.shards < 0:
		fatal(fmt.Errorf("-shards %d: want 0 (auto) or more; -det selects the deterministic inline engine", o.shards))
	case o.selftest:
		if err := runSelftest(&o); err != nil {
			fatal(err)
		}
	case o.listen != "":
		if err := runListen(&o); err != nil {
			fatal(err)
		}
	default:
		if err := runReplay(&o); err != nil {
			fatal(err)
		}
	}
}

// setup is everything both serving modes need: the workload, its spatial
// backend, and a calibrated per-shard strategy factory.
type setup struct {
	in      *market.Instance
	sp      spatial.Space
	factory func(int) core.Strategy
	pb      float64
}

func buildSetup(o *options) (*setup, error) {
	name := "synthetic"
	switch {
	case o.beijing != "":
		name = "beijing-" + o.beijing
	case strings.EqualFold(o.space, "road"):
		name = "beijing-rush"
	}
	in, model, err := workload.Named(o.space, name, workload.SyntheticConfig{
		Workers: o.workers, Requests: o.requests, Periods: o.periods,
		GridSide: o.gridSide, Seed: o.seed,
	}, o.duration, o.scale)
	if err != nil {
		return nil, err
	}
	sp := in.Spatial()
	switch strings.ToLower(o.strategy) {
	case "maps", "basep", "sdr", "sde":
	default:
		return nil, fmt.Errorf("unknown -strategy %q (want maps, basep, sdr, or sde)", o.strategy)
	}
	params := core.DefaultParams()
	basep, err := exp.Calibrate(params, model, sp.NumCells(), o.probes, o.seed+1)
	if err != nil {
		return nil, err
	}
	// One private strategy per shard, all sharing the single calibration.
	factory := func(int) core.Strategy {
		s, err := exp.NewStrategy(o.strategy, params, basep)
		if err != nil {
			fatal(err)
		}
		return s
	}
	return &setup{in: in, sp: sp, factory: factory, pb: basep.BasePrice()}, nil
}

// engineConfig assembles the engine config for -shards (0 = auto-size to
// GOMAXPROCS clamped to the cell count) or, with -det, the inline engine.
// Irregular (non-grid) spaces get the balanced contiguous partitioner, which
// may clamp below the request: the returned config's Shards is authoritative.
func engineConfig(o *options, s *setup, autoDecide bool) engine.Config {
	nShards := o.shards
	if o.det {
		nShards = 0
	} else if nShards == 0 {
		nShards = engine.DefaultShards(s.sp.NumCells())
	}
	cfg := engine.Config{
		Space:       s.sp,
		Shards:      nShards,
		Window:      o.window,
		NewStrategy: s.factory,
		AutoDecide:  autoDecide,
		Amortize:    o.amortize,
	}
	if nShards > 0 && spatial.BackendName(s.sp) != "grid" {
		// Irregular cell structures load-balance better in contiguous runs.
		// BalancedPartition clamps to the cell count; size the engine from
		// the partitioner it actually built.
		p := spatial.BalancedPartition(s.sp, nShards)
		cfg.Partitioner = p
		if p.Shards() != nShards {
			fmt.Printf("note: %d shards clamped to %d (space has only that many cells)\n",
				nShards, p.Shards())
			cfg.Shards = p.Shards()
		}
	}
	return cfg
}

// runReplay is the historical mode: stream the generated workload through
// an in-process engine.
func runReplay(o *options) error {
	s, err := buildSetup(o)
	if err != nil {
		return err
	}
	cfg := engineConfig(o, s, true)
	cfg.OnDecision = func(engine.Decision) {} // throughput run: discard the stream

	// -wal-dir makes the replay durable: every event is appended (and
	// group-commit fsynced) before it is applied, so a crash loses at most
	// the unsynced tail and a restart recovers the rest from the log.
	var wlog *wal.Log
	if o.walDir != "" {
		st, err := wal.NewFileStore(o.walDir)
		if err != nil {
			return err
		}
		wopt := wal.Options{}
		if o.walSync > 1 {
			wopt.Sync = wal.SyncBatch
			wopt.BatchAppends = o.walSync
		}
		wlog, err = wal.Open(st, wopt)
		if err != nil {
			return err
		}
		defer wlog.Close()
		cfg.WAL = wlog
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}

	opts := engine.ReplayOpts{}
	switch {
	case wlog != nil:
		// WAL recovery: snapshot (if any) plus the log tail past it. The
		// recovered event count positions the resumed stream exactly —
		// SkipEvents is event-granular where -restore alone is only
		// period-granular. Without an explicit -restore, auto-recover from
		// -checkpoint-file when it exists: periodic snapshots truncate the
		// log past what they cover, so the snapshot is then mandatory (same
		// auto-recovery the server's tenants do).
		snapPath := o.restore
		if snapPath == "" && o.ckptEvery > 0 {
			if _, err := os.Stat(o.ckptFile); err == nil {
				snapPath = o.ckptFile
			}
		}
		var snap io.Reader
		var sf *os.File
		if snapPath != "" {
			sf, err = os.Open(snapPath)
			if err != nil {
				return err
			}
			snap = sf
		}
		_, err = eng.RecoverWAL(snap)
		if sf != nil {
			sf.Close()
		}
		if err != nil {
			return err
		}
		if recovered := int(eng.Stats().Events); recovered > 0 {
			opts.SkipEvents = recovered
			fmt.Printf("wal recovery: %d events restored (snapshot %q + log %s); resuming past them\n",
				recovered, snapPath, o.walDir)
		}
	case o.restore != "":
		f, err := os.Open(o.restore)
		if err != nil {
			return err
		}
		err = eng.Restore(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.From = eng.RestoredPeriod() + 1
		fmt.Printf("restored checkpoint %s: resuming at period %d\n", o.restore, opts.From)
	}

	// Periodic checkpoints plus signal-triggered ones: SIGINT/SIGTERM mark
	// the interrupted flag; the per-period hook then writes a final
	// atomic snapshot (same tmp+rename path) and stops the replay, so an
	// operator's ^C never loses more than the open period.
	var interrupted atomic.Bool
	errInterrupted := fmt.Errorf("interrupted by signal")
	if o.ckptEvery > 0 {
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigCh
			signal.Stop(sigCh)
			interrupted.Store(true)
		}()
		// snapshot writes the atomic checkpoint and, on a WAL-backed run,
		// reclaims the log segments the snapshot now covers — recovery then
		// replays only the tail past it.
		snapshot := func() error {
			var ckLSN uint64
			if wlog != nil {
				ckLSN = eng.WALLastLSN()
			}
			if err := writeCheckpoint(eng, o.ckptFile); err != nil {
				return err
			}
			if wlog != nil {
				if _, err := wlog.TruncateBefore(ckLSN + 1); err != nil {
					return err
				}
			}
			return nil
		}
		opts.AfterPeriod = func(p int) error {
			if interrupted.Load() {
				if err := snapshot(); err != nil {
					return err
				}
				return errInterrupted
			}
			if (p+1)%o.ckptEvery != 0 {
				return nil
			}
			return snapshot()
		}
	}

	if o.mobility > 0 {
		opts.Moves = workload.MobilityTrace(s.in, workload.MobilityConfig{
			MoveProb: o.mobility, Seed: o.seed + 2,
		})
	}

	// The shard count decides which markets are priced together, so the
	// banner says where it came from: on auto it follows the host's
	// GOMAXPROCS, and so does the revenue.
	mode := fmt.Sprintf("%d shards from -shards %d", cfg.Shards, o.shards)
	switch {
	case cfg.Shards == 0:
		mode = "deterministic, one inline shard from -det"
	case o.shards == 0:
		mode = fmt.Sprintf("%d shards from auto: DefaultShards = min(GOMAXPROCS %d, %d cells)",
			cfg.Shards, runtime.GOMAXPROCS(0), s.sp.NumCells())
	}
	fmt.Printf("replaying %d tasks / %d workers / %d periods through %s (%s, window %d, p_b %.2f)\n",
		len(s.in.Tasks), len(s.in.Workers), s.in.Periods, o.strategy, mode, o.window, s.pb)
	fmt.Printf("spatial backend: %s (%d cells)\n", spatial.BackendName(s.sp), s.sp.NumCells())
	if len(opts.Moves) > 0 {
		fmt.Printf("mobility trace: %d moves (p=%.2f)\n", len(opts.Moves), o.mobility)
	}

	n, err := engine.ReplayWith(eng, s.in, opts)
	wasInterrupted := false
	if err != nil {
		if !strings.Contains(err.Error(), errInterrupted.Error()) {
			return err
		}
		wasInterrupted = true
	}
	if err := eng.Close(); err != nil {
		return err
	}
	st := eng.Stats()
	if wlog != nil {
		ws := wlog.Stats()
		if cerr := wlog.Close(); cerr != nil && cerr != wal.ErrClosed {
			return cerr
		}
		fmt.Printf("wal: %d..%d durable through %d (%d segments in %s)\n",
			ws.FirstLSN, ws.LastLSN, ws.DurableLSN, ws.Segments, o.walDir)
	}
	if wasInterrupted {
		fmt.Printf("interrupted: checkpoint written to %s (resume with -restore %s)\n", o.ckptFile, o.ckptFile)
	}
	fmt.Printf("submitted %d events\n\n%s", n, st)
	if rs, ok := s.sp.(*spatial.RoadSpace); ok {
		hits, misses := rs.CacheStats()
		fmt.Printf("road dist    %d cache hits, %d misses\n", hits, misses)
	}
	return nil
}

// writeCheckpoint atomically replaces path with a fresh engine checkpoint
// (write to a temp file, then rename), so a crash mid-write cannot corrupt
// the last good checkpoint.
func writeCheckpoint(eng *engine.Engine, path string) error {
	return server.WriteCheckpointAtomic(eng, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
