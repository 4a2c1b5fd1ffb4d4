package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// switchWorker fails every tile while failing is set and delegates to its
// inner worker otherwise — a stand-in for a slave that crashes and is later
// repaired.
type switchWorker struct {
	inner   Worker
	failing atomic.Bool
}

func (w *switchWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if w.failing.Load() {
		return TileResult{}, errors.New("injected persistent fault")
	}
	return w.inner.ProcessTile(ctx, t)
}

// tripWorker fails every tile and closes tripped on its after-th failure.
type tripWorker struct {
	failures atomic.Int32
	after    int32
	tripped  chan struct{}
}

func (w *tripWorker) ProcessTile(context.Context, dataset.Tile) (TileResult, error) {
	if w.failures.Add(1) == w.after {
		close(w.tripped)
	}
	return TileResult{}, errors.New("injected persistent fault")
}

// misfitWorker mangles its first result with misfit and serves every later
// tile faithfully: a worker that answers once with the wrong shape.
type misfitWorker struct {
	inner  Worker
	misfit func(*TileResult)
	done   atomic.Bool
}

func (w *misfitWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	res, err := w.inner.ProcessTile(ctx, t)
	if err == nil && !w.done.Swap(true) {
		w.misfit(&res)
	}
	return res, err
}

// TestPoolRetriesMisfitResult proves the pool checks each answer against
// the tile it dispatched: no image, an image of another size, or another
// tile's index or origin is a worker fault, charged and retried like a
// crash, and never blitted into the served frame.
func TestPoolRetriesMisfitResult(t *testing.T) {
	sc := testScene(t, 44)
	ref := newPool(t, localWorkers(t, 1, nil), WithPoolTileSize(8))
	want := <-ref.Submit(context.Background(), sc.Observed)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	for name, misfit := range map[string]func(*TileResult){
		"nil image":    func(r *TileResult) { r.Image = nil },
		"4x4 image":    func(r *TileResult) { r.Image = dataset.NewImage(4, 4) },
		"short pixels": func(r *TileResult) { r.Image.Pix = r.Image.Pix[:10] },
		"wrong index":  func(r *TileResult) { r.Index++ },
		"wrong origin": func(r *TileResult) { r.X0 += 8 },
	} {
		pool, err := NewPool(WithPoolTileSize(8), WithPoolRetries(1),
			WithBreaker(3, time.Millisecond, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(&misfitWorker{inner: localWorkers(t, 1, nil)[0], misfit: misfit})
		res := <-pool.Submit(context.Background(), sc.Observed)
		pool.Close()
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if res.Retries != 1 {
			t.Errorf("%s: %d retries, want the misfit charged once", name, res.Retries)
		}
		if !slices.Equal(res.Image.Pix, want.Image.Pix) {
			t.Errorf("%s: served frame differs from a healthy run", name)
		}
	}
}

// TestPoolQuarantinesAndReadmitsFailingWorker is the acceptance scenario: a
// pool of 4 workers where one fails every tile must complete a baseline
// bit-identical to a healthy 3-worker pool, quarantine the bad worker
// (visible in the pool gauges and circuit counters), and readmit it via a
// half-open probe once it is repaired.
func TestPoolQuarantinesAndReadmitsFailingWorker(t *testing.T) {
	sc := testScene(t, 41)

	ref := newPool(t, localWorkers(t, 3, nil), WithPoolTileSize(32))
	want := <-ref.Submit(context.Background(), sc.Observed)
	if want.Err != nil {
		t.Fatal(want.Err)
	}

	reg := telemetry.NewRegistry()
	pool, err := NewPool(WithPoolTileSize(32), WithPoolRetries(2),
		WithBreaker(2, 2*time.Millisecond, 20*time.Millisecond),
		WithPoolTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range localWorkers(t, 3, nil) {
		pool.AddWorker(w)
	}
	bad := &switchWorker{inner: localWorkers(t, 1, nil)[0]}
	bad.failing.Store(true)
	badID := pool.AddWorker(bad)

	// One 4-tile baseline may hand the bad worker fewer tiles than the trip
	// threshold; keep submitting (every result must stay bit-identical)
	// until its circuit opens.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counters["pipeline_pool_circuit_open_total"] < 1 {
		res := <-pool.Submit(context.Background(), sc.Observed)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for i := range want.Image.Pix {
			if res.Image.Pix[i] != want.Image.Pix[i] {
				t.Fatalf("pool with failing worker differs from healthy pool at pixel %d", i)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("circuit never opened: %+v", pool.Workers())
		}
	}
	if got := reg.Snapshot().Gauges["pipeline_pool_workers_quarantined"]; got < 1 {
		t.Fatalf("quarantined gauge = %v, want >= 1", got)
	}
	found := false
	for _, ws := range pool.Workers() {
		if ws.ID == badID {
			found = true
			if ws.State == WorkerHealthy {
				t.Fatalf("bad worker %s still healthy: %+v", badID, ws)
			}
		}
	}
	if !found {
		t.Fatalf("bad worker %s missing from status: %+v", badID, pool.Workers())
	}

	// Repair the worker; submissions keep flowing while its backoff expires
	// and a half-open probe succeeds, which must readmit it.
	bad.failing.Store(false)
	deadline = time.Now().Add(30 * time.Second)
	for {
		res := <-pool.Submit(context.Background(), sc.Observed)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if reg.Snapshot().Gauges["pipeline_pool_workers_healthy"] == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never readmitted: %+v", badID, pool.Workers())
		}
	}
	if got := reg.Snapshot().Counters["pipeline_pool_circuit_close_total"]; got < 1 {
		t.Fatalf("circuit close counter = %d, want >= 1 after readmission", got)
	}
}

// TestPoolDrainsTilesWithoutChargingRetries pins the charge policy: a
// failure that trips a worker's circuit while healthy peers remain drains
// the tile to them without spending its retry budget, so a run with a ZERO
// retry budget still completes when one worker fails every tile.
func TestPoolDrainsTilesWithoutChargingRetries(t *testing.T) {
	sc := testScene(t, 42)
	pool, err := NewPool(WithPoolTileSize(32), WithPoolRetries(0),
		WithBreaker(1, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, w := range localWorkers(t, 2, nil) {
		pool.AddWorker(w)
	}
	bad := &switchWorker{inner: nil}
	bad.failing.Store(true)
	pool.AddWorker(bad)

	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatalf("zero-retry run with a draining worker failed: %v", res.Err)
	}
	if res.Retries != 0 {
		t.Fatalf("drained tiles charged %d retries, want 0", res.Retries)
	}
}

// TestPoolQuarantinesAfterThreshold pins the breaker arithmetic: with a
// threshold of 3, the bad worker's first two failures charge the retry
// budget, the third trips the circuit uncharged, and every later probe
// failure is uncharged too — so the run reports exactly 2 retries. The
// healthy workers hold their first tile until the third failure, so the
// bad worker always gets to fail three times.
func TestPoolQuarantinesAfterThreshold(t *testing.T) {
	sc := testScene(t, 43)
	pool, err := NewPool(WithPoolTileSize(32), WithPoolRetries(3),
		WithBreaker(3, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tripped := make(chan struct{})
	for _, w := range localWorkers(t, 2, nil) {
		// started holds one token per tile the worker can ever see (4).
		pool.AddWorker(&slowWorker{inner: w, started: make(chan struct{}, 4), release: tripped})
	}
	bad := &tripWorker{after: 3, tripped: tripped}
	badID := pool.AddWorker(bad)

	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Retries != 2 {
		t.Fatalf("run charged %d retries, want exactly 2 (threshold-1)", res.Retries)
	}
	for _, ws := range pool.Workers() {
		if ws.ID != badID {
			continue
		}
		if ws.State == WorkerHealthy {
			t.Fatalf("bad worker not quarantined: %+v", ws)
		}
		if ws.ConsecutiveFailures < 3 {
			t.Fatalf("consecutive failures = %d, want >= 3", ws.ConsecutiveFailures)
		}
	}
}

// TestSubmitBackpressureBlocksWhenQueueFull proves the bounded queue: with
// depth 1 and the only worker wedged, Submit must block enqueueing the
// third tile until the worker drains, instead of buffering arbitrarily.
func TestSubmitBackpressureBlocksWhenQueueFull(t *testing.T) {
	sc := testScene(t, 44) // 64x64 at tile 32 -> 4 tiles
	inner := localWorkers(t, 1, nil)[0]
	sw := &slowWorker{inner: inner, started: make(chan struct{}, 8), release: make(chan struct{})}
	pool, err := NewPool(WithPoolTileSize(32), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.AddWorker(sw)

	returned := make(chan (<-chan *Result), 1)
	go func() { returned <- pool.Submit(context.Background(), sc.Observed) }()
	<-sw.started // tile 0 in flight, tile 1 queued, Submit now blocked on tile 2
	select {
	case <-returned:
		t.Fatal("Submit returned with the queue full: backpressure missing")
	case <-time.After(50 * time.Millisecond):
	}

	close(sw.release)
	var out <-chan *Result
	select {
	case out = <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit never unblocked after the worker drained")
	}
	res := <-out
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Image == nil || res.Image.Width != 64 {
		t.Fatalf("backpressured run produced malformed output: %+v", res)
	}
}

// awaitResult reads a submission's Result, failing the test when none
// arrives within a few seconds.
func awaitResult(t *testing.T, out <-chan *Result) *Result {
	t.Helper()
	select {
	case res := <-out:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("Submit never delivered its Result")
		return nil
	}
}

// TestPoolSubmitDeliversAfterClose is a regression test: a Submit after
// Close, or racing it, could enqueue jobs behind Close's drain, where
// nothing ran or failed them, so its Result never came. Every submission
// now delivers, a late one with the pool-closed error.
func TestPoolSubmitDeliversAfterClose(t *testing.T) {
	sc := testScene(t, 46)
	pool := newPool(t, localWorkers(t, 1, nil), WithPoolTileSize(32))
	pool.Close()
	for i := 0; i < 40; i++ {
		res := awaitResult(t, pool.Submit(context.Background(), sc.Observed))
		if !errors.Is(res.Err, errPoolClosed) {
			t.Fatalf("submission %d after Close: err = %v, want the pool-closed error", i, res.Err)
		}
	}

	// Submissions racing Close each deliver, whichever way the race went.
	for round := 0; round < 10; round++ {
		pool := newPool(t, localWorkers(t, 1, nil), WithPoolTileSize(32))
		outs := make(chan (<-chan *Result), 4)
		var wg sync.WaitGroup
		for i := 0; i < cap(outs); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs <- pool.Submit(context.Background(), sc.Observed)
			}()
		}
		pool.Close()
		wg.Wait()
		close(outs)
		for out := range outs {
			awaitResult(t, out)
		}
	}
}

// TestPoolSubmitEmptyStackDelivers is a regression test: a stack that
// fragments into no tiles left its submission pending forever. It now
// delivers a bad-geometry error.
func TestPoolSubmitEmptyStackDelivers(t *testing.T) {
	pool := newPool(t, localWorkers(t, 1, nil), WithPoolTileSize(32))
	for name, s := range map[string]*dataset.Stack{
		"no frames":   {},
		"0x0 frames":  dataset.NewStack(4, 0, 0),
		"0x32 frames": dataset.NewStack(4, 0, 32),
	} {
		res := awaitResult(t, pool.Submit(context.Background(), s))
		if !errors.Is(res.Err, dataset.ErrBadGeometry) {
			t.Errorf("%s: err = %v, want a bad-geometry error", name, res.Err)
		}
	}
}

// TestPoolDynamicMembership exercises runtime add/remove: stable IDs are
// never reused, removal is idempotent, and the pool keeps serving
// submissions across membership churn.
func TestPoolDynamicMembership(t *testing.T) {
	sc := testScene(t, 45)
	pool, err := NewPool(WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ws := localWorkers(t, 3, nil)
	ids := make([]string, len(ws))
	for i, w := range ws {
		ids[i] = pool.AddWorker(w)
	}
	if ids[0] != "w1" || ids[1] != "w2" || ids[2] != "w3" {
		t.Fatalf("unexpected worker IDs: %v", ids)
	}
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	if !pool.RemoveWorker(ids[1]) {
		t.Fatalf("RemoveWorker(%s) reported no membership", ids[1])
	}
	if pool.RemoveWorker(ids[1]) {
		t.Fatal("second RemoveWorker of the same ID should report false")
	}
	if pool.Size() != 2 {
		t.Fatalf("size after removal = %d, want 2", pool.Size())
	}
	// A later admission gets a fresh ID; w2 is never reused.
	if id := pool.AddWorker(localWorkers(t, 1, nil)[0]); id != "w4" {
		t.Fatalf("readmission reused or skipped IDs: got %s, want w4", id)
	}
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}
	var got []string
	for _, ws := range pool.Workers() {
		got = append(got, ws.ID)
	}
	if len(got) != 3 || got[0] != "w1" || got[1] != "w3" || got[2] != "w4" {
		t.Fatalf("membership after churn = %v, want [w1 w3 w4]", got)
	}
}

// TestRemoteWorkerReconnectsWithBackoff covers the transport layer's
// reconnect: after the server dies mid-session (failing the in-flight
// exchange), a replacement listener that comes up a beat later is found by
// the proxy's backoff dial loop on the next call.
func TestRemoteWorkerReconnectsWithBackoff(t *testing.T) {
	sc := testScene(t, 46)
	tiles, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	inner := localWorkers(t, 1, nil)[0]
	srv := NewServer(inner)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Dial(addr, WithDialBackoff(6, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.ProcessTile(context.Background(), cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// The exchange against the dead server must fail (at-most-once: the
	// proxy never silently replays a tile on a fresh connection).
	if _, err := w.ProcessTile(context.Background(), cloneTile(tiles[1])); err == nil {
		t.Fatal("exchange against a closed server should fail")
	}

	// Bring a replacement up on the same address after a delay shorter than
	// the proxy's total backoff window.
	rebind := make(chan error, 1)
	srv2ch := make(chan *Server, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv2 := NewServer(inner)
		if _, err := srv2.Listen(addr); err != nil {
			rebind <- err
			return
		}
		srv2ch <- srv2
		rebind <- nil
	}()
	res, err := w.ProcessTile(context.Background(), cloneTile(tiles[1]))
	if rerr := <-rebind; rerr != nil {
		t.Skipf("could not rebind %s: %v", addr, rerr)
	}
	defer (<-srv2ch).Close()
	if err != nil {
		t.Fatalf("proxy did not reconnect through backoff: %v", err)
	}
	if res.Index != tiles[1].Index {
		t.Fatalf("reconnected exchange returned tile %d, want %d", res.Index, tiles[1].Index)
	}
}
