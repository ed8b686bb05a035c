package server

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"

	"spatialcrowd/internal/engine"
	"spatialcrowd/internal/wal"
)

// tenantNameRE constrains tenant names to characters that are safe in URL
// paths and Prometheus label values without escaping.
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// TenantConfig describes one isolated "city": a private engine instance
// behind the shared listener.
type TenantConfig struct {
	// Name routes requests (/v1/{name}/...) and labels metrics. Letters,
	// digits, '_' and '-' only.
	Name string
	// Engine configures the tenant's engine. OnDecision is chained: the
	// server installs its quote hub first and then calls any configured
	// callback. Shards == 0 runs the engine inline in the ingest handler's
	// goroutine, exactly like one shard (useful for replay-exact tenants);
	// use engine.DefaultShards to auto-size.
	Engine engine.Config
	// RestoreFrom, when non-empty, loads this checkpoint into the fresh
	// engine before serving — the recovery half of a drained tenant.
	RestoreFrom string
	// CheckpointPath, when non-empty, receives an atomic checkpoint
	// (tmp+rename) when the server drains.
	CheckpointPath string
	// QuoteCache overrides the per-generation recent-quote cache size
	// (default 65536 entries; two generations live at once).
	QuoteCache int
	// WALDir, when non-empty, gives the tenant a durable write-ahead log in
	// that directory: every accepted event is appended (and group-commit
	// fsynced) before the HTTP response, so an acknowledged event survives
	// a crash. On startup the tenant auto-recovers — the newest checkpoint
	// (RestoreFrom, or CheckpointPath if it exists on disk) plus the WAL
	// tail replayed past it.
	WALDir string
	// WALSyncEvery batches fsyncs: an appended chunk that leaves this many
	// records unsynced ends with an fsync (and so does every ingest
	// acknowledgement — the group-commit barrier). <= 1 fsyncs every chunk.
	WALSyncEvery int
	// WALSegmentBytes caps segment size before rotation (default 16 MiB).
	WALSegmentBytes int64
	// Codec restricts which ingest codec the tenant accepts: "json",
	// "binary", or "" for both. A request in the refused codec gets 415, the
	// lever that pins a replay-exact tenant to one canonical wire path.
	Codec string
}

// Tenant is one running city: engine + quote hub + ingest accounting.
type Tenant struct {
	name     string
	eng      *engine.Engine
	hub      *quoteHub
	ckptPath string
	wlog     *wal.Log // nil without WALDir; owned by the tenant, closed on drain

	// ingestMu serializes ingestion against drain: handlers hold it shared
	// around Submit calls; Drain takes it exclusively so the checkpoint
	// cannot race an in-flight Submit (an Engine.Checkpoint precondition).
	ingestMu sync.RWMutex

	ingested atomic.Int64 // events accepted over HTTP
	rejected atomic.Int64 // events turned away with 429: per refusal, the chunk's events past the accepted prefix
	draining atomic.Bool

	// codec, when non-empty, is the only wire codec the tenant accepts.
	codec string
	// Per-codec ingest traffic, indexed by codecJSON/codecBinary: events
	// accepted and request-body bytes consumed.
	codecEvents [numCodecs]atomic.Int64
	codecBytes  [numCodecs]atomic.Int64
}

// newTenant validates the config, builds the engine (restoring a checkpoint
// when configured), and wires the quote hub into the decision stream.
func newTenant(cfg TenantConfig) (*Tenant, error) {
	if !tenantNameRE.MatchString(cfg.Name) {
		return nil, fmt.Errorf("server: invalid tenant name %q (want [a-zA-Z0-9_-]{1,64})", cfg.Name)
	}
	switch cfg.Codec {
	case "", "json", "binary":
	default:
		return nil, fmt.Errorf("server: tenant %q: invalid Codec %q (want json, binary, or empty for both)", cfg.Name, cfg.Codec)
	}
	t := &Tenant{name: cfg.Name, hub: newQuoteHub(cfg.QuoteCache), ckptPath: cfg.CheckpointPath, codec: cfg.Codec}
	ecfg := cfg.Engine
	chained := ecfg.OnDecision
	ecfg.OnDecision = func(d engine.Decision) {
		t.hub.Publish(d)
		if chained != nil {
			chained(d)
		}
	}
	if cfg.WALDir != "" {
		st, err := wal.NewFileStore(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: wal dir: %w", cfg.Name, err)
		}
		opt := wal.Options{SegmentBytes: cfg.WALSegmentBytes}
		if cfg.WALSyncEvery > 1 {
			opt.Sync = wal.SyncBatch
			opt.BatchAppends = cfg.WALSyncEvery
		}
		log, err := wal.Open(st, opt)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: opening wal: %w", cfg.Name, err)
		}
		t.wlog = log
		ecfg.WAL = log
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		t.closeWAL()
		return nil, fmt.Errorf("server: tenant %q: %w", cfg.Name, err)
	}

	// Pick the snapshot to start from: an explicit RestoreFrom wins;
	// otherwise a WAL-backed tenant auto-recovers from its own last
	// checkpoint when one exists on disk.
	snapPath := cfg.RestoreFrom
	if snapPath == "" && t.wlog != nil && cfg.CheckpointPath != "" {
		if _, err := os.Stat(cfg.CheckpointPath); err == nil {
			snapPath = cfg.CheckpointPath
		}
	}
	if t.wlog != nil {
		var snap io.Reader
		var f *os.File
		if snapPath != "" {
			f, err = os.Open(snapPath)
			if err != nil {
				eng.Close()
				t.closeWAL()
				return nil, fmt.Errorf("server: tenant %q: %w", cfg.Name, err)
			}
			snap = f
		}
		_, err = eng.RecoverWAL(snap)
		if f != nil {
			f.Close()
		}
		if err != nil {
			eng.Close()
			t.closeWAL()
			return nil, fmt.Errorf("server: tenant %q: wal recovery (snapshot %q): %w", cfg.Name, snapPath, err)
		}
	} else if snapPath != "" {
		f, err := os.Open(snapPath)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("server: tenant %q: %w", cfg.Name, err)
		}
		err = eng.Restore(f)
		f.Close()
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("server: tenant %q: restoring %s: %w", cfg.Name, snapPath, err)
		}
	}
	t.eng = eng
	return t, nil
}

// closeWAL releases the tenant's log handle (nil-safe, idempotent enough
// for the error paths that call it before the tenant ever served).
func (t *Tenant) closeWAL() {
	if t.wlog != nil {
		t.wlog.Close()
	}
}

// Name reports the tenant's routing name.
func (t *Tenant) Name() string { return t.name }

// Engine exposes the tenant's engine (stats, checkpoint in tests).
func (t *Tenant) Engine() *engine.Engine { return t.eng }

// Ingested reports events accepted over HTTP; Rejected reports events the
// admission controller turned away: for every 429, the events of the
// submitted chunk past the accepted prefix.
func (t *Tenant) Ingested() int64 { return t.ingested.Load() }
func (t *Tenant) Rejected() int64 { return t.rejected.Load() }

// allowsCodec reports whether the tenant admits the given wire codec.
func (t *Tenant) allowsCodec(codec int) bool {
	return t.codec == "" || t.codec == codecName(codec)
}

// noteCodecTraffic records one ingest request's per-codec accounting:
// events accepted and body bytes consumed.
func (t *Tenant) noteCodecTraffic(codec int, events int, bytes int64) {
	if events > 0 {
		t.codecEvents[codec].Add(int64(events))
	}
	if bytes > 0 {
		t.codecBytes[codec].Add(bytes)
	}
}

// submitBatch runs one decoded chunk through admission control: a
// non-blocking TrySubmitBatch against the engine's event budget. The
// accepted-prefix count propagates to the handler as the client's resume
// cursor, and engine.ErrBusy becomes 429 + Retry-After there — the queue
// never grows beyond its fixed capacity on a client's behalf. The engine
// serializes concurrent submitters itself, in every mode.
func (t *Tenant) submitBatch(evs []engine.Event) (int, error) {
	t.ingestMu.RLock()
	defer t.ingestMu.RUnlock()
	if t.draining.Load() {
		return 0, errDraining
	}
	n, err := t.eng.TrySubmitBatch(evs)
	t.ingested.Add(int64(n))
	return n, err
}

// durableLSN reports the tenant's last fsynced WAL position (0 without a
// WAL) — the resume cursor ingest responses hand back to clients.
func (t *Tenant) durableLSN() uint64 { return t.eng.WALDurableLSN() }

// durablePrefix cuts a request's accepted count back to those of its
// events an fsync covered. Every one of them was appended at or before the log's
// last LSN, in stream order, and at most last-durable of them lie past the
// durable LSN, so accepted-(last-durable) is a durable prefix — exactly the
// durable part when no other request appended in between. Without a WAL
// nothing is unsynced and accepted stands.
func (t *Tenant) durablePrefix(accepted int) int {
	st := t.eng.WALStats()
	return max(accepted-int(st.LastLSN-st.DurableLSN), 0)
}

var errDraining = fmt.Errorf("server: tenant draining")

// drain quiesces the tenant: new ingestion is refused (503), in-flight
// submits finish, a checkpoint is written while the engine still runs (the
// FIFO barrier flushes every accepted event into it), and the engine closes
// — finalizing pending quoted batches. Idempotent.
func (t *Tenant) drain() error {
	if !t.draining.CompareAndSwap(false, true) {
		return nil
	}
	// Exclusive lock: every in-flight submit has returned and later ones
	// see the draining flag, so Checkpoint/Close cannot race Submit.
	t.ingestMu.Lock()
	defer t.ingestMu.Unlock()
	var err error
	if t.ckptPath != "" {
		ckLSN := t.eng.WALLastLSN()
		err = writeCheckpointAtomic(t.eng, t.ckptPath)
		if err == nil && t.wlog != nil {
			// The snapshot now covers everything up to ckLSN; reclaim the
			// sealed segments below it. Startup recovery replays only the
			// tail past the snapshot.
			if _, terr := t.wlog.TruncateBefore(ckLSN + 1); terr != nil {
				err = terr
			}
		}
	}
	if cerr := t.eng.Close(); cerr != nil && cerr != engine.ErrClosed && err == nil {
		err = cerr
	}
	if t.wlog != nil {
		if werr := t.wlog.Close(); werr != nil && werr != wal.ErrClosed && err == nil {
			err = werr
		}
	}
	t.hub.Close()
	if err != nil {
		return fmt.Errorf("server: draining tenant %q: %w", t.name, err)
	}
	return nil
}

// writeCheckpointAtomic replaces path with a fresh engine checkpoint via
// the write-temp-then-rename dance, so a crash mid-write cannot corrupt the
// last good checkpoint. The temp file is fsynced before the rename and the
// parent directory after it: without the first, the rename can install a
// name whose bytes are still in the page cache (a crash then leaves a
// corrupt "good" checkpoint); without the second, the rename itself can
// vanish and resurrect a stale snapshot — fatal once the WAL has been
// truncated past it. Shared with cmd/serve's periodic and signal-triggered
// checkpoints.
func writeCheckpointAtomic(eng *engine.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := eng.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// WriteCheckpointAtomic is the exported form of the atomic checkpoint
// helper; cmd/serve reuses it for periodic and signal-triggered snapshots.
func WriteCheckpointAtomic(eng *engine.Engine, path string) error {
	return writeCheckpointAtomic(eng, path)
}
