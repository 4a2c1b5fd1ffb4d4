package serve

// Durable, replayable ingest for the daemon: an optional
// write-ahead log (store.WAL) records every admitted baseline before it
// is batched onto the backend, and an optional content-addressed dedupe
// cache serves repeat uploads of an identical baseline without paying
// the preprocessing pipeline again.
//
// The two compose into the crash-recovery story: a daemon that dies with
// admitted-but-unserved requests replays them from the log through the
// normal admission path on restart, and the replayed results land in the
// dedupe cache — so when the disconnected clients retry the same
// baselines, the retries are cache hits answered bit-identically to what
// the crashed run would have served.

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/store"
	"spaceproc/internal/telemetry"
)

// DefaultDedupeCap bounds the dedupe cache when a flag or option enables
// it without choosing a size.
const DefaultDedupeCap = 256

// ingestMetrics holds the WAL and dedupe registry handles (nil without
// telemetry).
type ingestMetrics struct {
	walAppends      *telemetry.Counter
	walCommits      *telemetry.Counter
	walErrors       *telemetry.Counter
	walReplayed     *telemetry.Counter
	walReplayErrors *telemetry.Counter
	walPending      *telemetry.Gauge
	dedupeHits      *telemetry.Counter
	dedupeMisses    *telemetry.Counter
	dedupeEntries   *telemetry.Gauge
}

// ingest is the daemon's durability arm: WAL, dedupe cache, or both.
type ingest struct {
	wal        *store.WAL   // nil: no write-ahead logging
	dedupe     *dedupeCache // nil: no content-addressed dedupe
	replayable []*store.WALEntry
	met        *ingestMetrics // nil without telemetry
	log        *slog.Logger
}

// newIngest opens the configured durability pieces. Returns nil when cfg
// enables neither.
func newIngest(cfg Config) (*ingest, error) {
	if cfg.WALDir == "" && cfg.DedupeCap <= 0 {
		return nil, nil
	}
	ing := &ingest{log: cfg.Logger}
	if cfg.DedupeCap > 0 {
		ing.dedupe = newDedupeCache(cfg.DedupeCap)
	}
	if cfg.WALDir != "" {
		wal, entries, rep, err := store.OpenWAL(cfg.WALDir, store.WALOptions{
			ChunkBytes: cfg.WALChunkBytes,
			Sync:       cfg.WALSync,
		})
		if err != nil {
			return nil, err
		}
		ing.wal = wal
		ing.replayable = entries
		if ing.log != nil {
			ing.log.LogAttrs(context.Background(), slog.LevelInfo, "wal opened",
				slog.String("dir", cfg.WALDir),
				slog.Int("replayable", len(entries)),
				slog.Int("committed", rep.Committed),
				slog.Int("corrupt", rep.Corrupt),
				slog.Bool("truncated", rep.Truncated))
		}
	}
	if cfg.Telemetry != nil {
		p := cfg.MetricPrefix
		ing.met = &ingestMetrics{
			walAppends:      cfg.Telemetry.Counter(p + "_wal_appends_total"),
			walCommits:      cfg.Telemetry.Counter(p + "_wal_commits_total"),
			walErrors:       cfg.Telemetry.Counter(p + "_wal_errors_total"),
			walReplayed:     cfg.Telemetry.Counter(p + "_wal_replayed_total"),
			walReplayErrors: cfg.Telemetry.Counter(p + "_wal_replay_errors_total"),
			walPending:      cfg.Telemetry.Gauge(p + "_wal_pending"),
			dedupeHits:      cfg.Telemetry.Counter(p + "_dedupe_hits_total"),
			dedupeMisses:    cfg.Telemetry.Counter(p + "_dedupe_misses_total"),
			dedupeEntries:   cfg.Telemetry.Gauge(p + "_dedupe_entries"),
		}
		if ing.wal != nil {
			ing.met.walPending.Set(float64(ing.wal.Pending()))
		}
	}
	return ing, nil
}

// dedupeCache maps baseline content digests onto previously served
// results. Bounded FIFO: past cap entries the oldest digest is evicted —
// the access pattern this serves (a client re-uploading a recent
// baseline, a crashed client retrying a replayed one) is recency-shaped,
// and FIFO avoids per-hit bookkeeping on the serve path.
type dedupeCache struct {
	mu      sync.Mutex
	cap     int
	entries map[store.Digest]*cluster.Result
	order   []store.Digest
}

func newDedupeCache(cap int) *dedupeCache {
	return &dedupeCache{cap: cap, entries: make(map[store.Digest]*cluster.Result, cap)}
}

func (d *dedupeCache) get(dig store.Digest) (*cluster.Result, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	res, ok := d.entries[dig]
	return res, ok
}

func (d *dedupeCache) put(dig store.Digest, res *cluster.Result) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[dig]; !ok {
		for len(d.order) >= d.cap {
			delete(d.entries, d.order[0])
			d.order = d.order[1:]
		}
		d.order = append(d.order, dig)
	}
	d.entries[dig] = res
	return len(d.entries)
}

// cached answers a content-addressed dedupe lookup: a hit is a
// previously served (or replayed) result for a bit-identical baseline,
// and the caller skips the pipeline entirely.
func (ing *ingest) cached(dig store.Digest) (*cluster.Result, bool) {
	if ing.dedupe == nil {
		return nil, false
	}
	res, ok := ing.dedupe.get(dig)
	if m := ing.met; m != nil {
		if ok {
			m.dedupeHits.Inc()
		} else {
			m.dedupeMisses.Inc()
		}
	}
	return res, ok
}

// logAdmitted appends one admitted baseline to the WAL before it enters
// the batcher. A logging failure is not fatal to the request — the
// daemon still serves it, it just isn't crash-durable — but it is
// counted and logged. ok reports whether the entry was durably appended
// (and so must be committed when the request retires).
func (ing *ingest) logAdmitted(client, key string, dig store.Digest, s *dataset.Stack) (seq uint64, ok bool) {
	if ing.wal == nil {
		return 0, false
	}
	seq, err := ing.wal.Append(client, key, dig, s)
	if m := ing.met; m != nil {
		if err == nil {
			m.walAppends.Inc()
			m.walPending.Set(float64(ing.wal.Pending()))
		} else {
			m.walErrors.Inc()
		}
	}
	if err != nil {
		if ing.log != nil {
			ing.log.LogAttrs(context.Background(), slog.LevelWarn, "wal append failed",
				slog.String("client", client), slog.String("error", err.Error()))
		}
		return 0, false
	}
	return seq, true
}

// resolveLogged marks a logged entry resolved — the request's exchange
// completed (served, errored, or shed back to the client), so it must
// not replay after a restart. Pass the result only on success so it also
// seeds the dedupe cache; failures pass nil.
func (ing *ingest) resolveLogged(seq uint64, dig store.Digest, res *cluster.Result) {
	if res != nil {
		ing.cache(dig, res)
	}
	if ing.wal == nil {
		return
	}
	err := ing.wal.Commit(seq)
	if m := ing.met; m != nil {
		if err == nil {
			m.walCommits.Inc()
			m.walPending.Set(float64(ing.wal.Pending()))
		} else {
			m.walErrors.Inc()
		}
	}
	if err != nil && ing.log != nil {
		ing.log.LogAttrs(context.Background(), slog.LevelWarn, "wal commit failed",
			slog.Uint64("seq", seq), slog.String("error", err.Error()))
	}
}

// cache stores a served result under its baseline's digest.
func (ing *ingest) cache(dig store.Digest, res *cluster.Result) {
	if ing.dedupe == nil {
		return
	}
	n := ing.dedupe.put(dig, res)
	if m := ing.met; m != nil {
		m.dedupeEntries.Set(float64(n))
	}
}

// close releases the WAL file handle; idempotent, and a no-op on a nil
// ingest.
func (ing *ingest) close() {
	if ing != nil && ing.wal != nil {
		ing.wal.Close()
	}
}

// ErrReplayAborted reports a WAL replay cut short by drain or
// cancellation; the unreplayed entries stay logged for the next restart.
var ErrReplayAborted = errors.New("serve: wal replay aborted")

// ReplayWAL pushes every admitted-but-unserved entry recovered from the
// WAL back through the normal admission path, in the order the crashed
// run admitted them, one at a time. Served results are committed and
// seed the dedupe cache, so clients retrying the lost requests get
// bit-identical answers without recomputation. Entries whose pipeline
// run fails are committed too (counted in <prefix>_wal_replay_errors_
// total) — replaying a poisoned baseline on every restart would wedge
// recovery forever.
//
// Call it once, after construction and before (or concurrently with)
// serving traffic; the daemon does this on boot, so clients retrying
// requests the previous run lost hit the warmed cache. Returns the number
// of entries successfully replayed.
func (s *Server) ReplayWAL(ctx context.Context) (int, error) {
	ing := s.ing
	if ing == nil {
		return 0, nil
	}
	entries := ing.replayable
	ing.replayable = nil
	replayed := 0
	for _, e := range entries {
		release, err := s.admitReplay(ctx, e.Client)
		if err != nil {
			return replayed, err
		}
		rctx := WithRoute(s.forceCtx, Route{Client: e.Client, Key: e.Key})
		res := <-s.bat.submit(rctx, e.Stack)
		release()
		if res.Err != nil {
			if m := ing.met; m != nil {
				m.walReplayErrors.Inc()
			}
			if ing.log != nil {
				ing.log.LogAttrs(ctx, slog.LevelWarn, "wal replay failed",
					slog.Uint64("seq", e.Seq),
					slog.String("client", e.Client),
					slog.String("error", res.Err.Error()))
			}
			ing.resolveLogged(e.Seq, e.Digest, nil)
			continue
		}
		ing.resolveLogged(e.Seq, e.Digest, res)
		replayed++
		if m := ing.met; m != nil {
			m.walReplayed.Inc()
		}
	}
	return replayed, nil
}

// admitReplay runs one replayed entry through admission, waiting out
// sheds (replay is sequential, so a shed only means live traffic holds
// every slot) and aborting on drain or context cancellation.
func (s *Server) admitReplay(ctx context.Context, client string) (func(), error) {
	for {
		verdict, release := s.admit(client)
		switch verdict.Status {
		case StatusAccepted:
			return release, nil
		case StatusDraining:
			return nil, ErrReplayAborted
		}
		t := time.NewTimer(verdict.RetryAfter)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ErrReplayAborted
		}
	}
}
