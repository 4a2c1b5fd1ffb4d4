package cluster

import (
	"context"
	"errors"
	"math/bits"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// testScene builds a small multi-tile baseline with CR hits.
func testScene(t *testing.T, seed uint64) *synth.Scene {
	t.Helper()
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height = 64, 64
	sc, err := synth.NewScene(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func localWorkers(t *testing.T, n int, pre core.SeriesPreprocessor) []Worker {
	t.Helper()
	workers := make([]Worker, n)
	for i := range workers {
		w, err := NewLocalWorker(pre, crreject.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	return workers
}

// newPool builds a pool over workers that closes with the test.
func newPool(t *testing.T, workers []Worker, opts ...PoolOption) *Pool {
	t.Helper()
	p, err := NewPool(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		p.AddWorker(w)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPoolRejectsZeroTileSize(t *testing.T) {
	if _, err := NewPool(WithPoolTileSize(0)); err == nil {
		t.Fatal("zero tile size should error")
	}
}

func TestPipelineMatchesSerialIntegration(t *testing.T) {
	sc := testScene(t, 1)
	pool := newPool(t, localWorkers(t, 4, nil), WithPoolTileSize(32))
	got := <-pool.Submit(context.Background(), sc.Observed)
	if got.Err != nil {
		t.Fatal(got.Err)
	}

	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := rej.Integrate(sc.Observed)
	for i := range want.Pix {
		if got.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("pipeline image differs from serial integration at %d", i)
		}
	}
	if got.Stats != wantStats {
		t.Fatalf("stats %+v != serial %+v", got.Stats, wantStats)
	}
}

func TestPipelineCompressedPayloadDecodes(t *testing.T) {
	sc := testScene(t, 2)
	pool := newPool(t, localWorkers(t, 3, nil), WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	dec, err := rice.Decode(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if dec[i] != res.Image.Pix[i] {
			t.Fatalf("downlink payload corrupt at %d", i)
		}
	}
	if res.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio %.2f, want > 1", res.CompressionRatio())
	}
}

func TestPipelineWithPreprocessingBeatsWithout(t *testing.T) {
	// End-to-end Figure 1 + preprocessing: with bit flips in the raw
	// readouts, the preprocessed pipeline's integrated image is closer to
	// the fault-free pipeline's output.
	sc := testScene(t, 3)
	faulty := sc.Observed.Clone()
	// (fault injection on the stack in memory, before processing)
	injectStack(t, faulty, 0.02, 4)

	clean := newPool(t, localWorkers(t, 4, nil), WithPoolTileSize(32))
	idealRes := <-clean.Submit(context.Background(), sc.Observed)
	if idealRes.Err != nil {
		t.Fatal(idealRes.Err)
	}

	noPre := <-clean.Submit(context.Background(), faulty)
	if noPre.Err != nil {
		t.Fatal(noPre.Err)
	}

	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	withPrePool := newPool(t, localWorkers(t, 4, pre), WithPoolTileSize(32))
	withPre := <-withPrePool.Submit(context.Background(), faulty.Clone())
	if withPre.Err != nil {
		t.Fatal(withPre.Err)
	}

	psiNo := metrics.RelativeError16(noPre.Image.Pix, idealRes.Image.Pix)
	psiPre := metrics.RelativeError16(withPre.Image.Pix, idealRes.Image.Pix)
	if psiPre*2 > psiNo {
		t.Fatalf("preprocessing gained too little end-to-end: without %.5f, with %.5f", psiNo, psiPre)
	}
}

func injectStack(t *testing.T, s *dataset.Stack, gamma float64, seed uint64) {
	t.Helper()
	fault.Uncorrelated{Gamma0: gamma}.InjectStack(s, rng.New(seed))
}

// flakyWorker fails the first `failures` calls, then delegates.
type flakyWorker struct {
	inner    Worker
	failures int32
}

func (w *flakyWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if atomic.AddInt32(&w.failures, -1) >= 0 {
		return TileResult{}, errors.New("injected worker failure")
	}
	return w.inner.ProcessTile(ctx, t)
}

func TestPipelineCollectsPreprocessingTelemetry(t *testing.T) {
	sc := testScene(t, 12)
	faulty := sc.Observed.Clone()
	injectStack(t, faulty, 0.01, 13)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, localWorkers(t, 3, pre), WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), faulty)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.PreStats.Series != 64*64 {
		t.Fatalf("telemetry covered %d series, want %d", res.PreStats.Series, 64*64)
	}
	if res.PreStats.Corrected == 0 {
		t.Fatal("no corrections recorded at 1% damage")
	}
	// Without preprocessing there is no telemetry.
	pool2 := newPool(t, localWorkers(t, 2, nil), WithPoolTileSize(32))
	res2 := <-pool2.Submit(context.Background(), faulty.Clone())
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.PreStats.Series != 0 {
		t.Fatalf("no-preprocessing run reported telemetry: %+v", res2.PreStats)
	}
}

// TestPoolVoteCountersMatchPreStats runs an instrumented AlgoNGST through
// a pool on a 16-readout stack, with one worker splitting its tiles over
// two shards: the preprocess_*_total counters, fed once per stack pass
// call, must total exactly the Result's PreStats.
func TestPoolVoteCountersMatchPreStats(t *testing.T) {
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height, cfg.Readouts = 96, 64, 16
	sc, err := synth.NewScene(cfg, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	injectStack(t, sc.Observed, 0.01, 17)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pre.Instrument(reg)
	sharded, err := NewLocalWorker(pre, crreject.DefaultConfig(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, append(localWorkers(t, 1, pre), sharded), WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := res.PreStats
	if st.Series != 96*64 || st.Corrected == 0 || st.GuardRejected == 0 {
		t.Fatalf("PreStats %+v: want every pixel voted, some corrections and some guard rejections", st)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"preprocess_series_total":         st.Series,
		"preprocess_corrected_total":      st.Corrected,
		"preprocess_bits_window_a_total":  st.BitsWindowA,
		"preprocess_bits_window_b_total":  st.BitsWindowB,
		"preprocess_guard_rejected_total": st.GuardRejected,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, PreStats say %d", name, got, want)
		}
	}
}

// reverseWorker delays each tile by its distance from the last index, so
// a pool with a worker per tile finishes the tiles in reverse order.
type reverseWorker struct {
	inner Worker
	tiles int
}

func (w reverseWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	res, err := w.inner.ProcessTile(ctx, t)
	time.Sleep(time.Duration(w.tiles-1-t.Index) * 25 * time.Millisecond)
	return res, err
}

// TestPoolPreStatsMergeInTileOrder pins Result.PreStats to the tile-index
// order merge of the per-tile stats, whatever order the tiles finish in:
// VoteStats.Add keeps the last merged tile's WindowCBit.
func TestPoolPreStatsMergeInTileOrder(t *testing.T) {
	sc := testScene(t, 3)
	injectStack(t, sc.Observed, 0.01, 31)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	ref := localWorkers(t, 1, pre)[0]
	var want, reversed core.VoteStats
	per := make([]core.VoteStats, len(tiles))
	for i, tile := range tiles {
		res, err := ref.ProcessTile(context.Background(), cloneTile(tile))
		if err != nil {
			t.Fatal(err)
		}
		per[i] = res.PreStats
		want.Add(res.PreStats)
	}
	for i := len(per) - 1; i >= 0; i-- {
		reversed.Add(per[i])
	}
	if want == reversed {
		t.Fatalf("premise: merge order must change the stats, both orders give %+v", want)
	}
	workers := localWorkers(t, len(tiles), pre)
	for i, w := range workers {
		workers[i] = reverseWorker{inner: w, tiles: len(tiles)}
	}
	pool := newPool(t, workers, WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.PreStats != want {
		t.Fatalf("PreStats %+v, tile-order merge %+v (reverse-order merge %+v)", res.PreStats, want, reversed)
	}
}

func TestMasterReassignsAfterWorkerFailure(t *testing.T) {
	sc := testScene(t, 5)
	good := localWorkers(t, 1, nil)
	// A single worker that fails its first two calls: every failed tile
	// must be re-queued and eventually succeed on the same worker, so
	// the retry count is deterministic regardless of scheduling.
	flaky := &flakyWorker{inner: good[0], failures: 2}
	pool := newPool(t, []Worker{flaky}, WithPoolTileSize(32), WithPoolRetries(3))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rej.Integrate(sc.Observed)
	for i := range want.Pix {
		if res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("image corrupted by retries at %d", i)
		}
	}
}

func TestMasterFailsWhenRetriesExhausted(t *testing.T) {
	sc := testScene(t, 6)
	alwaysBad := &flakyWorker{inner: nil, failures: 1 << 30}
	pool := newPool(t, []Worker{alwaysBad}, WithPoolTileSize(32), WithPoolRetries(1))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err == nil {
		t.Fatal("pipeline should fail when all workers keep failing")
	}
}

// slowWorker blocks each tile until released.
type slowWorker struct {
	inner   Worker
	started chan struct{}
	release chan struct{}
}

func (w *slowWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	w.started <- struct{}{}
	<-w.release
	return w.inner.ProcessTile(ctx, t)
}

func TestRunContextCancellation(t *testing.T) {
	sc := testScene(t, 10)
	inner := localWorkers(t, 1, nil)[0]
	sw := &slowWorker{inner: inner, started: make(chan struct{}, 8), release: make(chan struct{})}
	pool := newPool(t, []Worker{sw}, WithPoolTileSize(32))
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- (<-pool.Submit(ctx, sc.Observed)).Err
	}()
	<-sw.started // first tile in flight
	cancel()
	close(sw.release) // let the in-flight tile finish
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pipeline did not return")
	}
}

func TestRunContextCompletesWhenNotCancelled(t *testing.T) {
	sc := testScene(t, 10)
	pool := newPool(t, localWorkers(t, 2, nil), WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil || res.Image == nil {
		t.Fatalf("res=%v err=%v", res, res.Err)
	}
}

// pollBudgetCtx is a context whose Err turns context.Canceled once its
// first polls are spent, so a test can cancel a tile at a chosen poll
// without racing a timer.
type pollBudgetCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollBudgetCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestProcessTileCancelsDuringIntegration is the regression test for the
// uncancellable integration phase: the workers used to poll ctx only
// before integrating, then ran the whole tile's cosmic-ray rejection
// blind. With no preprocessor the tile is integration alone, so a
// context that cancels after two polls must stop a 128x128 tile (four
// chunks) part way instead of returning a full result.
func TestProcessTileCancelsDuringIntegration(t *testing.T) {
	cfg := synth.DefaultSceneConfig()
	cfg.Readouts = 16
	sc, err := synth.NewScene(cfg, rng.New(57))
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAdaptiveConfig(testModel()) // zero budget: Lambda 0, no vote
	aw, err := NewAdaptive(acfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]Worker{"local": lw, "adaptive": aw} {
		ctx := &pollBudgetCtx{Context: context.Background()}
		ctx.left.Store(2)
		res, err := w.ProcessTile(ctx, dataset.Tile{Stack: sc.Observed.Clone()})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: ProcessTile = (image %v, %v), want context.Canceled mid-integration", name, res.Image != nil, err)
		}
	}
}

func TestLocalWorkerRejectsEmptyTile(t *testing.T) {
	w, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ProcessTile(context.Background(), dataset.Tile{}); err == nil {
		t.Fatal("empty tile should error")
	}
}

// misshapenTiles are tiles a peer can put on the worker port (or a caller
// can hand a worker) that the kernels cannot index: each must be refused
// with an error, not a panic.
func misshapenTiles() map[string]dataset.Tile {
	frames := func(fs ...*dataset.Image) dataset.Tile {
		return dataset.Tile{Index: 3, Stack: &dataset.Stack{Frames: fs}}
	}
	return map[string]dataset.Tile{
		"nil frame":     frames(dataset.NewImage(8, 8), nil, dataset.NewImage(8, 8)),
		"smaller frame": frames(dataset.NewImage(8, 8), dataset.NewImage(4, 4)),
		"short pixels":  frames(dataset.NewImage(8, 8), &dataset.Image{Width: 8, Height: 8, Pix: make(dataset.Pixels, 10)}),
		"long pixels":   frames(&dataset.Image{Width: 4, Height: 4, Pix: make(dataset.Pixels, 17)}),
		"negative size": frames(&dataset.Image{Width: -4, Height: -4, Pix: make(dataset.Pixels, 16)}),
		"overflow size": frames(&dataset.Image{Width: 1 << (bits.UintSize / 2), Height: 1 << (bits.UintSize / 2)}),
	}
}

func TestWorkersRejectMisshapenTile(t *testing.T) {
	local, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := DefaultAdaptiveConfig(testModel())
	adaptiveCfg.Budget = 1
	adaptive, err := NewAdaptive(adaptiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tile := range misshapenTiles() {
		for _, w := range []Worker{local, adaptive} {
			if _, err := w.ProcessTile(context.Background(), tile); err == nil {
				t.Errorf("%T served a tile with a %s", w, name)
			}
		}
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	inner, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(inner)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	sc := testScene(t, 7)
	pool := newPool(t, []Worker{remote}, WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rej.Integrate(sc.Observed)
	for i := range want.Pix {
		if res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("TCP pipeline image differs at %d", i)
		}
	}
}

func TestTCPWorkerSurvivesServerRestart(t *testing.T) {
	inner, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(inner)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	sc := testScene(t, 8)
	tiles, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.ProcessTile(context.Background(), tiles[0]); err != nil {
		t.Fatal(err)
	}
	// Kill the connection server-side; the next call must fail, and the
	// one after must succeed on a fresh server at the same address.
	srv.Close()
	if _, err := remote.ProcessTile(context.Background(), tiles[1]); err == nil {
		t.Fatal("call against closed server should fail")
	}
	srv2 := NewServer(inner)
	addr2, err := srv2.Listen(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if addr2 != addr {
		t.Skipf("rebound to different address %s", addr2)
	}
	if _, err := remote.ProcessTile(context.Background(), tiles[1]); err != nil {
		t.Fatalf("re-dial after restart failed: %v", err)
	}
}

func TestRemoteWorkerReportsRemoteErrors(t *testing.T) {
	srv := NewServer(&flakyWorker{failures: 1 << 30})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	sc := testScene(t, 9)
	tiles, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.ProcessTile(context.Background(), tiles[0]); err == nil {
		t.Fatal("remote error should propagate")
	}
}
