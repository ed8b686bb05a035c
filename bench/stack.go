package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spatialcrowd/bench/gen"
	"spatialcrowd/bench/loadgen"
	"spatialcrowd/internal/core"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/spatial"
)

const tenantName = "bench"

// env is one set-up of a workload: the generated stream, the calibrated
// base price every strategy instance warm-starts from, and the pre-encoded
// request bodies.
type env struct {
	w      *workload
	stream *gen.Stream
	basep  *core.BaseP
	params core.Params
	codec  loadgen.Codec
	bodies [][]byte
	counts []int
	dir    string // scratch directory for WAL segments and checkpoints

	replies []int  // scripted replies carried by each chunk
	replied []bool // per task: was it sent a scripted reply
	// ref is the reference replay's final statistics.
	ref engine.Stats
}

// modelOracle answers BaseP's calibration probes from the hidden valuation
// model, as cmd/serve does.
type modelOracle struct {
	model market.ValuationModel
	rng   *rand.Rand
}

func (o *modelOracle) Probe(cell int, price float64) bool {
	return price <= o.model.Dist(cell).Sample(o.rng)
}

// setup is part 1 of a run: generate the instance, calibrate BaseP for the
// MAPS warm start, encode the request bodies, then start the stack once and
// push the first twentieth of the stream through it untimed so that first-use
// costs (listener, pools, lazy tables) are paid before anything is measured.
func setup(w *workload, windows int, seed int64, dir string) (*env, error) {
	s, err := gen.Make(w.kind, windows, seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, stream: s, params: core.DefaultParams(), dir: dir}
	if e.basep, err = core.NewBaseP(e.params); err != nil {
		return nil, err
	}
	oracle := &modelOracle{model: s.Model, rng: rand.New(rand.NewSource(seed + 1))}
	if err := e.basep.Calibrate(oracle, s.Space.NumCells(), 200); err != nil {
		return nil, err
	}
	e.counts = make([]int, s.Chunks())
	var evs []engine.Event
	if w.http {
		if e.codec, err = loadgen.CodecByName(w.codec); err != nil {
			return nil, err
		}
		e.bodies = make([][]byte, s.Chunks())
	}
	for c := range e.counts {
		evs = s.Events(c, evs[:0])
		e.counts[c] = len(evs)
		if w.http {
			if e.bodies[c], err = e.codec.Encode(nil, evs); err != nil {
				return nil, err
			}
		}
	}
	warm := s.Chunks() / 20
	if warm < 2 {
		warm = 2
	}
	st, err := e.start(stackOpts{tag: "warm"})
	if err != nil {
		return nil, err
	}
	_, err = loadgen.Run(loadgen.Plan{Chunks: warm}, st.target)
	if cerr := st.stop(); err == nil {
		err = cerr
	}
	return e, err
}

// strategy builds one MAPS instance warm-started from the shared
// calibration: one per shard, as strategies are not concurrency-safe.
func (e *env) strategy(int) core.Strategy {
	m, err := core.NewMAPS(e.params, e.basep.BasePrice())
	if err != nil {
		panic(err) // params validated in setup
	}
	e.basep.WarmStart(m.CellStats)
	return m
}

// stackOpts varies what a stack is built with, for the reference replay and
// the traced pass.
type stackOpts struct {
	tag        string
	inProcess  bool // drive the engine directly even on an http workload
	noAmortize bool
	noConsumer bool
	restore    string // in process: checkpoint file to start from
	walDir     string // existing WAL directory to recover from instead of a fresh one
	// wrap substitutes each shard's strategy (traced pass).
	wrap func(shard int, s core.Strategy) core.Strategy
	// space substitutes the spatial backend (traced pass).
	space spatial.Space
	// onDecision additionally receives every decision server-side.
	onDecision func(engine.Decision)
	// engineWAL attaches a log the caller opened (traced in-process pass).
	engineWAL func(cfg *engine.Config) error
}

// stack is one running instance of the system under test with the
// benchmark's two connections attached.
type stack struct {
	e         *env
	eng       *engine.Engine
	srv       *server.Server
	hs        *http.Server
	served    chan struct{}
	client    *http.Client
	base      string
	walDir    string
	ckpt      string        // in process: the checkpoint settle takes before closing
	ckptDur   time.Duration // and how long writing it took
	target    loadgen.Target
	consumer  *loadgen.Consumer
	recovered int // owed decisions fetched by task ID after the quote stream dropped them
}

// engineConfig is the one place a workload's engine settings are spelled
// out, shared by the stack under test and the reference replay.
func (e *env) engineConfig(o stackOpts) engine.Config {
	w := e.w
	sp := e.stream.Space
	if o.space != nil {
		sp = o.space
	}
	newStrat := e.strategy
	if o.wrap != nil {
		newStrat = func(i int) core.Strategy { return o.wrap(i, e.strategy(i)) }
	}
	cfg := engine.Config{
		Space:           sp,
		Shards:          w.shards, // fixed: DefaultShards depends on the host
		NewStrategy:     newStrat,
		AutoDecide:      !e.stream.Quoted,
		CellIndexGraphs: w.cellIndex,
		Amortize:        w.amortize && !o.noAmortize,
	}
	if w.shards > 0 && e.stream.Road != nil {
		// Irregular cells balance better in contiguous runs (as cmd/serve).
		cfg.Partitioner = spatial.BalancedPartition(e.stream.Space, w.shards)
	}
	return cfg
}

// start brings up a fresh stack: engine state never carries over between
// phases, because every phase is compared with the same reference replay.
func (e *env) start(o stackOpts) (*stack, error) {
	st := &stack{e: e}
	cfg := e.engineConfig(o)
	if !o.noConsumer {
		st.consumer = loadgen.NewConsumer(e.stream.NumTasks, e.stream.Quoted)
	}
	if !e.w.http || o.inProcess {
		switch {
		case st.consumer != nil && o.onDecision != nil:
			cfg.OnDecision = func(d engine.Decision) { o.onDecision(d); st.consumer.OnDecision(d) }
		case st.consumer != nil:
			cfg.OnDecision = st.consumer.OnDecision
		case o.onDecision != nil:
			cfg.OnDecision = o.onDecision
		default:
			cfg.OnDecision = func(engine.Decision) {}
		}
		if o.engineWAL != nil {
			if err := o.engineWAL(&cfg); err != nil {
				return nil, err
			}
		}
		eng, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		st.eng = eng
		st.ckpt = filepath.Join(e.dir, o.tag+".ckpt")
		st.target = &loadgen.EngineTarget{Engine: eng, Events: e.stream.Events}
		if o.restore != "" {
			if err := restoreFile(eng, o.restore); err != nil {
				eng.Close()
				return nil, err
			}
		}
		return st, nil
	}

	cfg.OnDecision = o.onDecision
	tc := server.TenantConfig{Name: tenantName, Engine: cfg, Codec: e.w.codec,
		// Every task's last decision stays fetchable by ID, so the consumer
		// can recover what the lossy quote stream drops.
		QuoteCache: e.stream.NumTasks + 1}
	if e.w.wal {
		st.walDir = o.walDir
		if st.walDir == "" {
			st.walDir = filepath.Join(e.dir, o.tag+"-wal")
			if err := os.RemoveAll(st.walDir); err != nil {
				return nil, err
			}
		}
		tc.WALDir = st.walDir
		tc.WALSyncEvery = 64
	}
	srv, err := server.New(server.Config{Tenants: []server.TenantConfig{tc}, RetryAfter: time.Millisecond})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	t, _ := srv.Tenant(tenantName)
	st.eng = t.Engine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	st.hs = &http.Server{Handler: srv}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	st.base = "http://" + ln.Addr().String()
	// One connection for ingest (posts are sequential), one for the quote
	// stream.
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	st.target = &loadgen.HTTPTarget{Client: st.client, URL: st.base + "/v1/" + tenantName + "/ingest",
		Codec: e.codec, Bodies: e.bodies, Counts: e.counts}
	if st.consumer != nil {
		if err := st.consumer.Subscribe(st.client, st.base+"/v1/"+tenantName+"/quotes/stream"); err != nil {
			st.stop()
			return nil, err
		}
	}
	return st, nil
}

// settle waits for the decision stream to run dry after the last chunk was
// acknowledged, then drains the tenant, which ends the quote stream after
// its last frame. What the stream owes is known, so the count says when it
// is dry; if the quote stream goes quiet with decisions missing it has
// dropped them, and the consumer fetches them by task ID. keepRunning leaves
// the server undrained (the crash analogue).
func (st *stack) settle(keepRunning bool) error {
	if st.srv == nil {
		// The traced run reports the checkpoint's cost and size; take it
		// while the engine still runs, as a draining server would.
		t0 := time.Now()
		if err := checkpointFile(st.eng, st.ckpt); err != nil {
			return err
		}
		st.ckptDur = time.Since(t0)
		return st.eng.Close() // delivers in-process decisions before returning
	}
	if !st.consumer.WaitFor(st.e.owedTotal(), 500*time.Millisecond) {
		n, err := st.consumer.Recover(st.client, st.base+"/v1/"+tenantName+"/quotes")
		if err != nil {
			return err
		}
		st.recovered = n
	}
	if keepRunning {
		return nil
	}
	if err := st.srv.Drain(); err != nil {
		return err
	}
	return st.consumer.WaitEOF(60 * time.Second)
}

func checkpointFile(eng *engine.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := eng.Checkpoint(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func restoreFile(eng *engine.Engine, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return eng.Restore(bufio.NewReader(f))
}

// stop releases everything the stack holds. Safe after settle and on a
// stack that was never settled.
func (st *stack) stop() error {
	if st.srv == nil {
		if err := st.eng.Close(); err != nil && err != engine.ErrClosed {
			return err
		}
		return nil
	}
	err := st.srv.Drain() // idempotent
	st.abandon()
	return err
}

// abandon cuts the stack's connections and stops its listener. Without a
// Drain before it this is the kill -9 analogue for the in-process server:
// nothing is flushed or checkpointed, and the engine's goroutines stay
// parked on their queues until reap.
func (st *stack) abandon() {
	if st.consumer != nil {
		st.consumer.Close()
	}
	st.hs.Close()
	<-st.served
	st.client.CloseIdleConnections()
}

// reap stops an abandoned stack's goroutines once the recovery it stood
// for has been measured.
func (st *stack) reap() error { return st.srv.Drain() }

func mkScratch(root, name string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// scrape reads one tenant-level sample off the server's /metrics page.
func (st *stack) scrape(name string) (float64, error) {
	resp, err := st.client.Get(st.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	prefix := name + `{tenant="` + tenantName + `"} `
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strconv.ParseFloat(strings.TrimPrefix(line, prefix), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not on /metrics", name)
}
