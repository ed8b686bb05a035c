package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spatialcrowd/bench/loadgen"
	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/market"
	"spatialcrowd/internal/server"
	"spatialcrowd/internal/spatial"
)

// buildServer assembles the multi-tenant dispatch server from the flags:
// one isolated engine per -tenants name, all sharing the workload's spatial
// backend and base-price calibration but nothing else.
func buildServer(o *options, s *setup) (*server.Server, []string, error) {
	names := strings.Split(o.tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	scfg := server.Config{}
	for _, name := range names {
		tc := server.TenantConfig{
			Name:        name,
			Engine:      engineConfig(o, s, !o.quoted),
			Codec:       o.codec, // "" accepts both wire codecs
			RestoreFrom: o.restore,
		}
		if o.ckptDir != "" {
			tc.CheckpointPath = filepath.Join(o.ckptDir, name+".ckpt")
		}
		if o.walDir != "" {
			// Each tenant owns its log: separate directory, independent
			// recovery. Startup auto-recovers from the tenant's drain
			// checkpoint (when present) plus the WAL tail past it.
			tc.WALDir = filepath.Join(o.walDir, name)
			tc.WALSyncEvery = o.walSync
		}
		scfg.Tenants = append(scfg.Tenants, tc)
	}
	srv, err := server.New(scfg)
	if err != nil {
		return nil, nil, err
	}
	return srv, names, nil
}

// runListen hosts the dispatch service until SIGINT/SIGTERM, then drains:
// ingestion quiesces (503), every tenant writes its checkpoint (when
// -checkpoint-dir is set), engines close, and the listener shuts down.
func runListen(o *options) error {
	s, err := buildSetup(o)
	if err != nil {
		return err
	}
	srv, names, err := buildServer(o, s)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	mode := "auto-decide (replay traffic carries valuations)"
	if o.quoted {
		mode = "quoted (requesters answer with decision events)"
	}
	cfg := engineConfig(o, s, !o.quoted)
	fmt.Printf("dispatch service on http://%s\n", ln.Addr())
	fmt.Printf("tenants: %s (one engine each: %d shards, window %d, %s strategy)\n",
		strings.Join(names, ", "), cfg.Shards, o.window, o.strategy)
	codec := "json + binary"
	if o.codec != "" {
		codec = o.codec + " only"
	}
	fmt.Printf("spatial backend: %s (%d cells), mode: %s, ingest codec: %s\n",
		spatial.BackendName(s.sp), s.sp.NumCells(), mode, codec)
	if o.ckptDir != "" {
		fmt.Printf("drain checkpoints: %s/<tenant>.ckpt\n", o.ckptDir)
	}
	if o.walDir != "" {
		fmt.Printf("durable wal: %s/<tenant>/ (fsync every %d appends + per-ack group commit)\n",
			o.walDir, o.walSync)
	}

	hs := srv.HTTPServer()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("\n%v: draining...\n", sig)
	case err := <-errCh:
		return err
	}
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: drain:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	for _, name := range names {
		if t, ok := srv.Tenant(name); ok {
			st := t.Engine().Stats()
			fmt.Printf("\n[%s] ingested %d over HTTP, rejected %d\n%s", name, t.Ingested(), t.Rejected(), st)
		}
	}
	return nil
}

// runSelftest is the loopback smoke test: a real server on a random port,
// the load generator pushing the full synthetic trace over sockets, and an
// exact revenue comparison against an in-process replay of the same trace
// through an identically configured engine. It exercises every layer the
// network path adds (JSON codec, chunked ingest, admission control, drain)
// and fails loudly on any divergence.
func runSelftest(o *options) error {
	s, err := buildSetup(o)
	if err != nil {
		return err
	}

	// Reference: in-process replay, identical engine configuration. For a
	// fixed submission order the engine is deterministic, so the HTTP path
	// must land on exactly this revenue.
	refCfg := engineConfig(o, s, true)
	refCfg.OnDecision = func(engine.Decision) {}
	ref, err := engine.New(refCfg)
	if err != nil {
		return err
	}
	if _, err := engine.ReplayWith(ref, s.in, engine.ReplayOpts{}); err != nil {
		return err
	}
	if err := ref.Close(); err != nil {
		return err
	}
	refStats := ref.Stats()

	// Amortization must be transparent: the same replay with the cache layer
	// flipped has to land on exactly the same revenue before the network leg
	// is worth comparing against either.
	oAlt := *o
	oAlt.amortize = !o.amortize
	altCfg := engineConfig(&oAlt, s, true)
	altCfg.OnDecision = func(engine.Decision) {}
	alt, err := engine.New(altCfg)
	if err != nil {
		return err
	}
	if _, err := engine.ReplayWith(alt, s.in, engine.ReplayOpts{}); err != nil {
		return err
	}
	if err := alt.Close(); err != nil {
		return err
	}
	altStats := alt.Stats()
	fmt.Printf("selftest: amortize on/off revenue %.6f vs %.6f (ctx cache %d/%d hits)\n",
		refStats.Revenue, altStats.Revenue,
		refStats.Cache.CtxHits+altStats.Cache.CtxHits,
		refStats.Cache.CtxHits+refStats.Cache.CtxMisses+altStats.Cache.CtxHits+altStats.Cache.CtxMisses)
	if altStats.Revenue != refStats.Revenue || altStats.Served != refStats.Served {
		return fmt.Errorf("selftest: amortized and fresh replays diverged: revenue %.9f vs %.9f, served %d vs %d",
			refStats.Revenue, altStats.Revenue, refStats.Served, altStats.Served)
	}

	// One codec-restricted tenant per wire codec: the same trace streams
	// over loopback twice, once as chunked NDJSON and once as binary batch
	// frames, and BOTH must land on exactly the in-process revenue — which
	// also proves the two codecs equal each other bit for bit.
	codecs := []string{"json", "binary"}
	primary := o.codec
	if primary == "" {
		primary = "json"
	}
	scfg := server.Config{}
	for _, c := range codecs {
		scfg.Tenants = append(scfg.Tenants, server.TenantConfig{
			Name:   "selftest-" + c,
			Engine: engineConfig(o, s, true),
			Codec:  c,
		})
	}
	srv, err := server.New(scfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := srv.HTTPServer()
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	fmt.Printf("selftest: %s, %d tasks / %d workers / %d periods, chunk %d, codecs %s (primary %s)\n",
		base, len(s.in.Tasks), len(s.in.Workers), s.in.Periods, o.genChunk,
		strings.Join(codecs, "+"), primary)

	reps := make(map[string]*loadgen.Report, len(codecs))
	for _, c := range codecs {
		rep, err := postTrace(base+"/v1/selftest-"+c+"/ingest", c, s.in, o.window, o.genChunk)
		if err != nil {
			return fmt.Errorf("load generator (%s): %w", c, err)
		}
		reps[c] = rep
	}

	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}

	rate := make(map[string]float64, len(codecs))
	for _, c := range codecs {
		t, _ := srv.Tenant("selftest-" + c)
		st := t.Engine().Stats()
		rep := reps[c]
		took := time.Duration(rep.Acked[len(rep.Acked)-1])
		rate[c] = float64(rep.Accepted) / took.Seconds()
		fmt.Printf("selftest[%s]: %d events over loopback in %v (%.0f events/s, %d posts, %d rejections)\n",
			c, rep.Accepted, took.Round(time.Millisecond), rate[c], rep.Posts, rep.Busy)
		fmt.Printf("selftest[%s]: revenue http=%.6f in-process=%.6f, served %d/%d\n",
			c, st.Revenue, refStats.Revenue, st.Served, refStats.Served)
		if int64(rep.Accepted) != st.Events {
			return fmt.Errorf("selftest[%s]: loadgen sent %d events, engine counted %d", c, rep.Accepted, st.Events)
		}
		if st.Revenue != refStats.Revenue || st.Served != refStats.Served {
			return fmt.Errorf("selftest[%s]: HTTP-ingested run diverged from in-process replay: revenue %.9f vs %.9f, served %d vs %d",
				c, st.Revenue, refStats.Revenue, st.Served, refStats.Served)
		}
	}
	fmt.Printf("selftest: binary/json ingest speedup %.2fx (%s is the -codec primary)\n",
		rate["binary"]/rate["json"], primary)
	fmt.Println("selftest: PASS (both codecs, exact revenue match, clean drain)")
	return nil
}

// postTrace streams the instance's canonical event order
// (engine.StreamEvents, the order of the in-process replay) to an ingest
// URL in chunk-event bodies of the named codec, through the benchmark's
// closed-loop load generator: one POST at a time, each resumed after a 429
// from the server's accepted count, so no event is lost or duplicated.
func postTrace(url, codec string, in *market.Instance, window, chunk int) (*loadgen.Report, error) {
	cd, err := loadgen.CodecByName(codec)
	if err != nil {
		return nil, err
	}
	t := &loadgen.HTTPTarget{Client: &http.Client{}, URL: url, Codec: cd}
	var evs []engine.Event
	flush := func() error {
		if len(evs) == 0 {
			return nil
		}
		body, err := cd.Encode(nil, evs)
		t.Bodies, t.Counts, evs = append(t.Bodies, body), append(t.Counts, len(evs)), evs[:0]
		return err
	}
	err = engine.StreamEvents(in, window, engine.ReplayOpts{}, func(ev engine.Event) error {
		if evs = append(evs, ev); len(evs) == chunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return nil, err
	}
	return loadgen.Run(loadgen.Plan{Chunks: len(t.Bodies)}, t)
}
