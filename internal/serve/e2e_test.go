package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// The e2e tests prove the acceptance criteria of the serving layer over a
// real cluster.Pool: bit-identical results versus an in-process
// ProcessStack run, shedding with retry-to-success beyond the inflight
// limit, and a drain that completes inflight work before exit (the
// SIGTERM path — cmd/spaceprocd translates the signal into the same
// Shutdown call; scripts/e2e_smoke.sh exercises the literal signal).

// e2ePool builds a pool of local workers with AlgoNGST preprocessing.
func e2ePool(t *testing.T, workers int) *cluster.Pool {
	t.Helper()
	pool, err := cluster.NewPool(cluster.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		w, err := cluster.NewLocalWorker(pre, crreject.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(w)
	}
	return pool
}

// e2eBaseline synthesizes a faulted 64x64 baseline.
func e2eBaseline(t *testing.T, seed uint64) *dataset.Stack {
	t.Helper()
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height = 64, 64
	cfg.Readouts = 16
	sc, err := synth.NewScene(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	faulty := sc.Observed.Clone()
	fault.Uncorrelated{Gamma0: 0.01}.InjectStack(faulty, rng.NewStream(seed, 99))
	return faulty
}

// TestE2EServedMatchesInProcess streams a faulted baseline through the
// daemon and asserts the served image and compressed payload are
// bit-identical to an in-process ProcessStack + Integrate + Rice run.
func TestE2EServedMatchesInProcess(t *testing.T) {
	pool := e2ePool(t, 4)
	_, addr := startServer(t, pool, WithTelemetry(telemetry.NewRegistry()))
	c := dialClient(t, addr, WithClientID("e2e"))

	faulty := e2eBaseline(t, 7)

	// In-process reference: the same preprocessing + integration +
	// compression with no serving or tiling layer in between.
	ref := faulty.Clone()
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	core.ProcessStackWith(pre, ref)
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantImg, wantStats := rej.Integrate(ref)
	wantComp := rice.Encode(wantImg.Pix)

	res, err := c.Process(context.Background(), faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.Width != wantImg.Width || res.Image.Height != wantImg.Height {
		t.Fatalf("served dims %dx%d, want %dx%d",
			res.Image.Width, res.Image.Height, wantImg.Width, wantImg.Height)
	}
	for i := range wantImg.Pix {
		if res.Image.Pix[i] != wantImg.Pix[i] {
			t.Fatalf("served image differs from in-process run at pixel %d", i)
		}
	}
	if len(res.Compressed) != len(wantComp) {
		t.Fatalf("compressed payload %d bytes, want %d", len(res.Compressed), len(wantComp))
	}
	for i := range wantComp {
		if res.Compressed[i] != wantComp[i] {
			t.Fatalf("compressed payload differs at byte %d", i)
		}
	}
	if res.Stats != wantStats {
		t.Fatalf("rejection stats %+v, want %+v", res.Stats, wantStats)
	}
	if res.PreStats.Series == 0 {
		t.Fatal("preprocessing forensics missing from served result")
	}
}

// gatedWorker wraps a real worker but holds every tile until the gate
// closes, making "inflight" a state tests control.
type gatedWorker struct {
	inner   cluster.Worker
	gate    chan struct{}
	started sync.Once
	begun   chan struct{} // closed when the first tile starts
}

func (w *gatedWorker) ProcessTile(ctx context.Context, tl dataset.Tile) (cluster.TileResult, error) {
	w.started.Do(func() { close(w.begun) })
	select {
	case <-w.gate:
	case <-ctx.Done():
		return cluster.TileResult{}, ctx.Err()
	}
	return w.inner.ProcessTile(ctx, tl)
}

// gatedPool builds a single gated worker pool.
func gatedPool(t *testing.T) (*cluster.Pool, *gatedWorker) {
	t.Helper()
	pool, err := cluster.NewPool(cluster.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	lw, err := cluster.NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw := &gatedWorker{inner: lw, gate: make(chan struct{}), begun: make(chan struct{})}
	pool.AddWorker(gw)
	return pool, gw
}

// TestE2EShedAndRetryToSuccess fills the daemon to its inflight limit,
// proves the overflow request is shed with a retry-after hint, and that
// the client's bounded-backoff retries land it once capacity frees up.
func TestE2EShedAndRetryToSuccess(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool, gw := gatedPool(t)
	_, addr := startServer(t, pool,
		WithTelemetry(reg), func(c *Config) { c.MaxInflight, c.RetryAfter = 1, 2*time.Millisecond })

	stack := testStack(8, 32, 32)
	occupier := dialClient(t, addr, WithClientID("occupier"))
	occupied := make(chan error, 1)
	go func() {
		_, err := occupier.Process(context.Background(), stack)
		occupied <- err
	}()
	<-gw.begun // the occupier's tiles are inflight on the gated worker

	creg := telemetry.NewRegistry()
	retrier := dialClient(t, addr, WithClientID("retrier"),
		WithTelemetry(creg),
		WithRetryPolicy(100, time.Millisecond, 5*time.Millisecond))
	retried := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = retrier.Process(context.Background(), stack)
		retried <- err
	}()

	deadline := time.After(10 * time.Second)
	for creg.Snapshot().Counters["client_sheds_total"] == 0 {
		select {
		case <-deadline:
			t.Fatal("retrier never observed a shed")
		case <-time.After(time.Millisecond):
		}
	}
	close(gw.gate) // free the occupier; the retrier's next attempt is admitted

	if err := <-retried; err != nil {
		t.Fatalf("retrier should succeed after capacity frees, got %v", err)
	}
	if err := <-occupied; err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Image == nil {
		t.Fatal("retrier got no result")
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got == 0 {
		t.Fatal("server never counted a shed")
	}
	if got := creg.Snapshot().Counters["client_retries_total"]; got == 0 {
		t.Fatal("client never counted a retry")
	}
}

// TestE2EShutdownDrainsInflight starts a request, begins a graceful
// shutdown while it is inflight, and proves (a) new requests are shed
// with StatusDraining, (b) the inflight request completes with a correct
// result, and (c) Shutdown returns only after it did.
func TestE2EShutdownDrainsInflight(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool, gw := gatedPool(t)
	srv, addr := startServer(t, pool, WithTelemetry(reg))

	stack := testStack(8, 32, 32)
	inflight := dialClient(t, addr, WithClientID("inflight"))
	type outcome struct {
		res *Result
		err error
	}
	finished := make(chan outcome, 1)
	go func() {
		res, err := inflight.Process(context.Background(), stack)
		finished <- outcome{res, err}
	}()
	<-gw.begun

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Wait for draining to take effect, then prove new work is refused.
	deadline := time.After(10 * time.Second)
	for {
		if _, err := DialClient(addr, WithRetryPolicy(1, time.Millisecond, time.Millisecond)); err != nil {
			break // listener closed: drain is in effect
		}
		select {
		case <-deadline:
			t.Fatal("listener never closed for drain")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned while a request was inflight: %v", err)
	default:
	}

	close(gw.gate)
	out := <-finished
	if out.err != nil {
		t.Fatalf("inflight request must drain to completion, got %v", out.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful drain should return nil, got %v", err)
	}

	// The drained result is still correct, not a stub.
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rej.Integrate(stack.Clone())
	for i := range want.Pix {
		if out.res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("drained result differs at pixel %d", i)
		}
	}

	// After drain, nothing is reachable.
	if _, err := DialClient(addr, WithClientDialBackoff(1, time.Millisecond)); err == nil {
		t.Fatal("dial should fail after drain completes")
	}
}

// TestE2EDrainingShedsNewRequestsOnOpenConns proves a connection that was
// established before the drain gets StatusDraining (with a retry hint)
// for requests submitted during it.
func TestE2EDrainingShedsNewRequestsOnOpenConns(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool, gw := gatedPool(t)
	srv, addr := startServer(t, pool, WithTelemetry(reg))

	stack := testStack(8, 32, 32)
	inflight := dialClient(t, addr)
	finished := make(chan error, 1)
	go func() {
		_, err := inflight.Process(context.Background(), stack)
		finished <- err
	}()
	<-gw.begun

	// Pre-established idle connection; wait until the accept loop has
	// registered it (a dial can succeed before Accept runs, and a drain
	// started in that window would drop the half-established conn).
	late := dialClient(t, addr, WithRetryPolicy(1, time.Millisecond, time.Millisecond))
	regDeadline := time.After(10 * time.Second)
	for {
		srv.mu.Lock()
		registered := srv.ln.Conns()
		srv.mu.Unlock()
		if registered >= 2 {
			break
		}
		select {
		case <-regDeadline:
			t.Fatal("late connection never registered")
		case <-time.After(time.Millisecond):
		}
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()

	// Shutdown flips the draining flag before it closes the listener, so
	// once a fresh dial fails every open connection sees StatusDraining.
	deadline := time.After(10 * time.Second)
	for {
		if _, err := DialClient(addr, WithClientDialBackoff(1, time.Millisecond)); err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("listener never closed for drain")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := late.Process(context.Background(), testStack(2, 8, 8)); !errors.Is(err, ErrShed) {
		t.Fatalf("request during drain should shed with ErrShed, got %v", err)
	}
	if got := reg.Snapshot().Counters["serve_drain_shed_total"]; got == 0 {
		t.Fatal("drain shed counter not bumped")
	}

	close(gw.gate)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}
}

// TestE2EShutdownDeadlineForcesClose proves a drain bounded by an
// already-expired context cancels inflight work instead of waiting.
func TestE2EShutdownDeadlineForcesClose(t *testing.T) {
	pool, gw := gatedPool(t)
	srv, addr := startServer(t, pool)

	c := dialClient(t, addr)
	finished := make(chan error, 1)
	go func() {
		_, err := c.Process(context.Background(), testStack(8, 32, 32))
		finished <- err
	}()
	<-gw.begun

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("forced shutdown should report ctx error, got %v", err)
	}
	if err := <-finished; err == nil {
		t.Fatal("forced close should fail the inflight request")
	}
}

// TestE2EDeadlinePropagates proves a client deadline crosses the wire and
// cancels the pool submission server-side.
func TestE2EDeadlinePropagates(t *testing.T) {
	pool, gw := gatedPool(t)
	_, addr := startServer(t, pool)
	defer close(gw.gate)

	c := dialClient(t, addr, WithRetryPolicy(1, time.Millisecond, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Process(ctx, testStack(8, 32, 32))
	if err == nil {
		t.Fatal("expired deadline should fail the request")
	}
}
