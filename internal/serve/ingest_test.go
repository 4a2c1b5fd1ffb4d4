package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spaceproc/internal/store"
	"spaceproc/internal/telemetry"
)

// The ingest tests prove the durability tier: content-addressed dedupe
// short-circuits repeat baselines, the WAL logs every admitted request
// before batching and commits it when the exchange resolves, and a
// restarted core replays admitted-but-unserved entries through the
// normal admission path with results bit-identical to a live run.

func TestDedupeServesCachedResult(t *testing.T) {
	fb := &fakeBackend{}
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, fb, func(c *Config) { c.DedupeCap = 8 }, WithTelemetry(reg))
	c := dialClient(t, addr)

	s := testStack(3, 8, 8)
	first, err := c.Process(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Process(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.submits.Load(); got != 1 {
		t.Fatalf("backend saw %d submissions, want 1 (second must be a cache hit)", got)
	}
	if !bytes.Equal(first.Compressed, second.Compressed) {
		t.Fatal("cached result must be bit-identical to the computed one")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_dedupe_hits_total"]; got != 1 {
		t.Fatalf("serve_dedupe_hits_total = %d, want 1", got)
	}
	if got := snap.Counters["serve_dedupe_misses_total"]; got != 1 {
		t.Fatalf("serve_dedupe_misses_total = %d, want 1", got)
	}

	// A different baseline is a miss, not a hit.
	if _, err := c.Process(context.Background(), testStack(3, 8, 4)); err != nil {
		t.Fatal(err)
	}
	if got := fb.submits.Load(); got != 2 {
		t.Fatalf("distinct baseline must reach the backend, submits = %d", got)
	}
}

func TestDedupeDisabledByDefault(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	c := dialClient(t, addr)
	s := testStack(2, 8, 8)
	for i := 0; i < 2; i++ {
		if _, err := c.Process(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if got := fb.submits.Load(); got != 2 {
		t.Fatalf("without dedupe every request must reach the backend, submits = %d", got)
	}
}

func TestWALLogsAndCommitsServedRequests(t *testing.T) {
	dir := t.TempDir()
	fb := &fakeBackend{}
	reg := telemetry.NewRegistry()
	srv, addr := startServer(t, fb, func(c *Config) { c.WALDir = dir }, WithTelemetry(reg))
	c := dialClient(t, addr)

	if _, err := c.Process(context.Background(), testStack(2, 8, 8)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_wal_appends_total"]; got != 1 {
		t.Fatalf("serve_wal_appends_total = %d, want 1", got)
	}
	if got := snap.Counters["serve_wal_commits_total"]; got != 1 {
		t.Fatalf("serve_wal_commits_total = %d, want 1", got)
	}
	if got := srv.ing.wal.Pending(); got != 0 {
		t.Fatalf("served request left %d pending WAL entries", got)
	}
}

func TestWALCommitsFailedRequests(t *testing.T) {
	// A request the pipeline failed is still resolved — its response went
	// out, the client owns the retry — so it must not replay.
	dir := t.TempDir()
	fb := &fakeBackend{fail: context.DeadlineExceeded}
	srv, addr := startServer(t, fb, func(c *Config) { c.WALDir = dir })
	c := dialClient(t, addr)
	if _, err := c.Process(context.Background(), testStack(2, 8, 8)); err == nil {
		t.Fatal("want pipeline error")
	}
	if got := srv.ing.wal.Pending(); got != 0 {
		t.Fatalf("failed request left %d pending WAL entries", got)
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	// Simulate the crash by writing admitted-but-unserved entries the way
	// a killed daemon leaves them: appended, never committed.
	dir := t.TempDir()
	w, _, _, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := testStack(2, 8, 8), testStack(3, 8, 8)
	if _, err := w.Append("alice", "stack-1", store.StackDigest(s1), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("bob", "stack-2", store.StackDigest(s2), s2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fb := &fakeBackend{}
	reg := telemetry.NewRegistry()
	srv, addr := startServer(t, fb, func(c *Config) { c.WALDir, c.DedupeCap = dir, 8 }, WithTelemetry(reg))
	n, err := srv.ReplayWAL(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d entries, want 2", n)
	}
	if got := fb.submits.Load(); got != 2 {
		t.Fatalf("replay must run the pipeline, submits = %d", got)
	}
	if got := srv.ing.wal.Pending(); got != 0 {
		t.Fatalf("replay left %d pending entries", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_wal_replayed_total"]; got != 2 {
		t.Fatalf("serve_wal_replayed_total = %d, want 2", got)
	}

	// The replay warmed the dedupe cache: a client retrying the lost
	// request is answered without recomputation.
	c := dialClient(t, addr)
	res, err := c.Process(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.submits.Load(); got != 2 {
		t.Fatalf("retry of a replayed baseline must hit the cache, submits = %d", got)
	}
	want := s1.Frames[0]
	if res.Image == nil || !bytes.Equal(pixBytes(res.Image.Pix), pixBytes(want.Pix)) {
		t.Fatal("replayed result does not match the lost baseline's pipeline output")
	}

	// A second boot replays nothing: everything was committed.
	srv.Close()
	cfg := DefaultConfig()
	cfg.WALDir = dir
	srv2, err := NewServerWith(&fakeBackend{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if n, err := srv2.ReplayWAL(context.Background()); err != nil || n != 0 {
		t.Fatalf("second boot replayed %d entries (err %v), want 0", n, err)
	}
}

func TestWALReplayCommitsPoisonedEntries(t *testing.T) {
	// An entry whose pipeline run fails must still commit, or it would
	// replay (and fail) on every subsequent boot.
	dir := t.TempDir()
	w, _, _, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := testStack(2, 8, 8)
	if _, err := w.Append("a", "", store.StackDigest(s), s); err != nil {
		t.Fatal(err)
	}
	w.Close()

	reg := telemetry.NewRegistry()
	srv, _ := startServer(t, &fakeBackend{fail: context.DeadlineExceeded},
		func(c *Config) { c.WALDir = dir }, WithTelemetry(reg))
	n, err := srv.ReplayWAL(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("failed replay counted as success: %d", n)
	}
	if got := reg.Snapshot().Counters["serve_wal_replay_errors_total"]; got != 1 {
		t.Fatalf("serve_wal_replay_errors_total = %d, want 1", got)
	}
	if got := srv.ing.wal.Pending(); got != 0 {
		t.Fatalf("poisoned entry left pending (%d), would wedge every boot", got)
	}
}

func pixBytes(pix []uint16) []byte {
	b := make([]byte, 2*len(pix))
	for i, p := range pix {
		b[2*i] = byte(p)
		b[2*i+1] = byte(p >> 8)
	}
	return b
}

// Satellite regression: a context canceled during the retry path must
// land in client_canceled_total, not vanish (or worse, count as a server
// error).
func TestClientCanceledCounter(t *testing.T) {
	// Saturate a 1-slot server so the client's request sheds, then cancel
	// while it sleeps out the retry delay.
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	fb := &fakeBackend{gate: gate, started: started}
	_, addr := startServer(t, fb, func(c *Config) { c.MaxInflight = 1 })

	occ := dialClient(t, addr, WithClientID("occ"))
	occDone := make(chan error, 1)
	go func() {
		_, err := occ.Process(context.Background(), testStack(2, 8, 8))
		occDone <- err
	}()
	<-started // the slot is held

	creg := telemetry.NewRegistry()
	c := dialClient(t, addr, WithClientID("canceled"),
		WithTelemetry(creg),
		WithRetryPolicy(5, time.Second, time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := c.Process(ctx, testStack(2, 8, 8)); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := creg.Snapshot().Counters["client_canceled_total"]; got != 1 {
		t.Fatalf("client_canceled_total = %d, want 1", got)
	}
	if got := creg.Snapshot().Counters["client_errors_total"]; got != 0 {
		t.Fatalf("cancellation must not count as a client error, got %d", got)
	}
	close(gate)
	if err := <-occDone; err != nil {
		t.Fatal(err)
	}
}

// Satellite regression: the server's retry-after hint must not burn a
// backoff rung when it overrides the ladder — historically each hinted
// retry escalated twice (once by the hint, once by the ladder).
func TestBackoffHintDoesNotEscalateLadder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryBackoff = 10 * time.Millisecond
	cfg.RetryBackoffMax = 500 * time.Millisecond
	cfg.clampClient()
	c := newClient(cfg, []string{"127.0.0.1:1"})

	// A hint above the current rung is used verbatim and leaves the
	// ladder where it was.
	if got := c.nextDelay(time.Second); got != time.Second {
		t.Fatalf("hinted delay = %v, want 1s", got)
	}
	c.mu.Lock()
	rung := c.backoff
	c.mu.Unlock()
	if rung != 10*time.Millisecond {
		t.Fatalf("hint escalated the ladder to %v", rung)
	}

	// Without a hint the ladder escalates as before.
	if got := c.nextDelay(0); got != 10*time.Millisecond {
		t.Fatalf("ladder delay = %v, want 10ms", got)
	}
	if got := c.nextDelay(0); got != 20*time.Millisecond {
		t.Fatalf("ladder delay = %v, want 20ms", got)
	}

	// A hint below the current rung defers to the ladder (the client's
	// own signal says the server is more loaded than the hint admits).
	if got := c.nextDelay(time.Millisecond); got != 40*time.Millisecond {
		t.Fatalf("ladder delay = %v, want 40ms", got)
	}
}
