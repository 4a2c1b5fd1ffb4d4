package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/serve"
	"spaceproc/internal/store"
	"spaceproc/internal/telemetry"
)

// The serve workloads run the daemon the way spaceprocd builds it —
// NewServerWith over a pool of one LocalWorker per CPU, default admission,
// 8-request / 2 ms batching, a write-ahead log — over loopback, with
// closed-loop clients uploading 128x128x16 baselines (loadgen's shape).
// Every boot is a crash-recovery boot: the WAL already holds walPending
// admitted but unserved baselines, which ReplayWAL serves before Listen,
// as spaceprocd does.
const (
	serveSize     = 128
	serveReadouts = 16
	// serveRing distinct baselines rotate through serve-ingest's uploads.
	serveRing = 16
	// walPending is how many baselines each boot replays; serve-repeat's
	// clients re-upload exactly these.
	walPending  = 8
	batchMax    = 8
	batchWindow = 2 * time.Millisecond
	// clientAttempts is loadgen's retry budget per request.
	clientAttempts = 8
	// walSync fsyncs every WAL append and commit, spaceprocd's default.
	walSync = true
)

// serveBench is serve-ingest (repeat false), where every upload is new
// work through the gob wire, admission, the batcher, the digest, the WAL
// and the pool; or serve-repeat (repeat true), the post-crash retry storm
// internal/serve/ingest.go describes: the clients re-upload the replayed
// baselines, so every request is a dedupe hit and the pool stays idle.
type serveBench struct {
	cfg      runConfig
	repeat   bool
	inputs   []*baseline
	nclients int
	// replays holds the ReplayWAL time of each traced boot.
	replays []time.Duration

	p      *probe
	pool   *cluster.Pool
	daemon *serve.Server
	conns  []*serve.Client
	walDir string
}

func newServeBench(cfg runConfig, repeat bool) (*serveBench, error) {
	n := serveRing
	if repeat {
		n = walPending
	}
	in, err := genBaselines(cfg.seed, n, serveSize, serveReadouts)
	if err != nil {
		return nil, err
	}
	return &serveBench{cfg: cfg, repeat: repeat, inputs: in, nclients: min(2, runtime.NumCPU())}, nil
}

func (b *serveBench) samplesPerOp() int   { return serveSize * serveSize * serveReadouts }
func (b *serveBench) clients() int        { return b.nclients }
func (b *serveBench) psi() (float64, int) { return meanPsi(b.inputs) }
func (b *serveBench) probe() *probe       { return b.p }

func clientID(c int) string { return fmt.Sprintf("perfbench-%d", c) }

// seedWAL writes a fresh WAL holding the first walPending inputs as
// admitted but never served — what a daemon killed mid-run leaves behind.
func (b *serveBench) seedWAL() (string, error) {
	dir, err := os.MkdirTemp(b.cfg.dir, "wal-")
	if err != nil {
		return "", err
	}
	w, _, _, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return "", err
	}
	for i, in := range b.inputs[:walPending] {
		if _, err := w.Append(clientID(i%b.nclients), "", in.digest, in.stack); err != nil {
			w.Close()
			return "", err
		}
	}
	return dir, w.Close()
}

func (b *serveBench) boot(traced bool) (time.Duration, bool, error) {
	dir, err := b.seedWAL()
	if err != nil {
		return 0, false, err
	}
	b.walDir = dir
	b.p = nil
	reg := telemetry.NewRegistry()
	if traced {
		b.p = newProbe()
		reg = b.p.reg
	}
	start := time.Now()
	pool, err := buildPool(b.cfg, reg, b.p.ledger())
	if err != nil {
		return 0, false, err
	}
	b.pool = pool
	var backend serve.Backend = pool
	if traced {
		backend = &timedBackend{pool: pool, led: b.p.led}
	}
	scfg := serve.DefaultConfig()
	scfg.BatchMax, scfg.BatchWindow = batchMax, batchWindow
	scfg.WALDir, scfg.WALSync = dir, walSync
	if b.repeat {
		scfg.DedupeCap = serve.DefaultDedupeCap
	}
	scfg.Telemetry = reg
	d, err := serve.NewServerWith(backend, scfg)
	if err != nil {
		return 0, false, err
	}
	b.daemon = d
	replayStart := time.Now()
	n, err := d.ReplayWAL(context.Background())
	if err != nil {
		return 0, false, fmt.Errorf("wal replay: %w", err)
	}
	if traced {
		b.replays = append(b.replays, time.Since(replayStart))
	}
	if n != walPending {
		return 0, false, fmt.Errorf("wal replay served %d of %d pending baselines", n, walPending)
	}
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return 0, false, err
	}
	for c := 0; c < b.nclients; c++ {
		opts := []serve.Option{
			serve.WithClientID(clientID(c)),
			serve.WithRetryPolicy(clientAttempts, serve.DefaultRetryBackoff, serve.DefaultRetryBackoffMax),
		}
		if traced {
			opts = append(opts, serve.WithTelemetry(reg))
		}
		conn, err := serve.DialClient(addr, opts...)
		if err != nil {
			return 0, false, err
		}
		b.conns = append(b.conns, conn)
	}
	_, ok := b.op(0, 0)
	return time.Since(start), ok, nil
}

func (b *serveBench) op(c, seq int) (time.Duration, bool) {
	idx := (seq*b.nclients + c) % len(b.inputs)
	in := b.inputs[idx]
	start := time.Now()
	res, err := b.conns[c].Process(context.Background(), in.stack)
	lat := time.Since(start)
	if err != nil {
		return lat, false
	}
	ok := in.matches(res.Image, res.Compressed)
	if led := b.p.ledger(); led != nil && ok {
		led.output(idx, baselineCounts(res.PreStats, res.Stats, res.Image, res.Compressed))
	}
	return lat, ok
}

func (b *serveBench) layers(w *window, set setFunc) error {
	p := b.p
	poolLayers(p, w, b.cfg.workers, set)
	req, n := p.p50("serve_request")
	set("serve.request_ms", ms(req), n)
	recv, n := p.p50("serve_receive")
	set("serve.receive_ms", ms(recv), n)
	set("serve.wire_ms", ms(quantile(w.lat, 0.5)-req), len(w.lat))
	wait, n := p.p50("serve_batch_wait")
	set("serve.batch_wait_ms", ms(wait), n)
	backend, submits := p.led.p50("op")
	set("serve.backend_ms", ms(backend), submits)
	set("serve.backend_submits", float64(submits), submits)
	batches := p.counter("serve_batches_total")
	set("serve.batch_size", ratio(float64(submits), batches), int(batches))
	requests := p.counter("serve_requests_total")
	set("serve.shed_ratio", ratio(p.counter("serve_shed_total"), requests), int(requests))
	set("serve.client_retries", p.counter("client_retries_total"), w.attempted)
	hits, misses := p.counter("serve_dedupe_hits_total"), p.counter("serve_dedupe_misses_total")
	set("serve.dedupe_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	set("serve.replay_s", median(b.replays).Seconds(), len(b.replays))
	if err := sideLayers(b.inputs, set); err != nil {
		return err
	}
	dig, n, err := timeCalls(func(i int) error {
		store.StackDigest(b.inputs[i%len(b.inputs)].stack)
		return nil
	})
	if err != nil {
		return err
	}
	set("store.digest_ms", ms(dig), n)
	return b.walLayers(set)
}

// walLayers times WAL appends and commits of the inputs on a side log with
// the daemon's sync setting. sideCalls stays below the WAL's compaction
// interval, so every call is a plain append or commit.
func (b *serveBench) walLayers(set setFunc) error {
	dir, err := os.MkdirTemp(b.cfg.dir, "side-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, _, _, err := store.OpenWAL(dir, store.WALOptions{Sync: walSync})
	if err != nil {
		return err
	}
	defer w.Close()
	appends := make([]time.Duration, sideCalls)
	commits := make([]time.Duration, sideCalls)
	for i := range appends {
		in := b.inputs[i%len(b.inputs)]
		t0 := time.Now()
		seq, err := w.Append(clientID(0), "", in.digest, in.stack)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := w.Commit(seq); err != nil {
			return err
		}
		appends[i], commits[i] = t1.Sub(t0), time.Since(t1)
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	set("store.wal_append_ms", ms(median(appends)), sideCalls)
	set("store.wal_commit_ms", ms(median(commits)), sideCalls)
	set("store.wal_bytes_per_op", float64(size)/sideCalls, sideCalls)
	return nil
}

// shutdown closes the clients, the daemon and the pool, and removes the
// boot's WAL directory (which lives in the run's scratch directory, itself
// removed when the run ends).
func (b *serveBench) shutdown() {
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
	if b.daemon != nil {
		b.daemon.Close()
		b.daemon = nil
	}
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
	}
	if b.walDir != "" {
		os.RemoveAll(b.walDir)
		b.walDir = ""
	}
}
