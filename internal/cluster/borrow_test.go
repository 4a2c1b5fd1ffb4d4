package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// The pool borrows the caller's stack: each attempt gathers its tile's
// window into the runner's warm stack, and the worker repairs that copy.
// These tests pin what the borrow promises: the caller's stack is only
// read, every attempt starts from its raw bits, and a warm stack reused
// across geometries carries nothing from one tile into the next.

// cloneTile deep-copies a tile, so a test that calls ProcessTile directly
// hands the worker a stack of its own, as the pool's gather does.
func cloneTile(t dataset.Tile) dataset.Tile {
	t.Stack = t.Stack.Clone()
	return t
}

// damagedStack is a w x h scene of n readouts with uncorrelated damage at
// Gamma0 = 0.01, so the vote repairs pixels in every tile.
func damagedStack(t *testing.T, w, h, n int, seed uint64) *dataset.Stack {
	t.Helper()
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height, cfg.Readouts = w, h, n
	sc, err := synth.NewScene(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	injectStack(t, sc.Observed, 0.01, seed+1)
	return sc.Observed
}

func ngstVoter(t *testing.T) *core.AlgoNGST {
	t.Helper()
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// referenceRun serves s on a fresh pool of one AlgoNGST LocalWorker.
func referenceRun(t *testing.T, s *dataset.Stack, tile int) *Result {
	t.Helper()
	pool := newPool(t, localWorkers(t, 1, ngstVoter(t)), WithPoolTileSize(tile))
	res := awaitResult(t, pool.Submit(context.Background(), s))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.PreStats.Corrected == 0 {
		t.Fatal("the reference repaired nothing, so a write to the caller's stack would not show")
	}
	return res
}

// sameResult reports how got differs from want in image, downlink bytes,
// preprocessing stats or rejection stats.
func sameResult(got, want *Result) error {
	switch {
	case got.Err != nil:
		return got.Err
	case !slices.Equal(got.Image.Pix, want.Image.Pix):
		return errors.New("image differs")
	case !bytes.Equal(got.Compressed, want.Compressed):
		return errors.New("compressed bytes differ")
	case got.PreStats != want.PreStats:
		return fmt.Errorf("PreStats %+v, want %+v", got.PreStats, want.PreStats)
	case got.Stats != want.Stats:
		return fmt.Errorf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	return nil
}

func sameStack(a, b *dataset.Stack) bool {
	return slices.EqualFunc(a.Frames, b.Frames, func(x, y *dataset.Image) bool {
		return x.Width == y.Width && x.Height == y.Height && slices.Equal(x.Pix, y.Pix)
	})
}

// scribbleWorker writes over every pixel of each tile it is handed. Its
// first attempt then fails; later ones are served by inner and scribbled
// over again before they return. The borrow contract allows all of it:
// the worker owns the tile's stack for the call.
type scribbleWorker struct {
	inner  Worker
	failed atomic.Bool
}

func scribble(s *dataset.Stack) {
	for _, f := range s.Frames {
		for i := range f.Pix {
			f.Pix[i] = 0xdead
		}
	}
}

func (w *scribbleWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if !w.failed.Swap(true) {
		scribble(t.Stack)
		return TileResult{}, errors.New("injected failure after scribbling")
	}
	res, err := w.inner.ProcessTile(ctx, t)
	scribble(t.Stack)
	return res, err
}

// TestPoolRetryStartsFromRawBits: the retry of a tile whose first attempt
// scribbled over its pixels sees the caller's raw bits, so the baseline
// matches an all-LocalWorker run bit for bit, and the caller's stack is
// never written. With one tile the retry is the runner's very next
// gather, of the same window; with four, other tiles come between.
func TestPoolRetryStartsFromRawBits(t *testing.T) {
	for _, tile := range []int{64, 32} {
		s := damagedStack(t, 64, 64, 64, 41)
		before := s.Clone()
		want := referenceRun(t, s.Clone(), tile)
		w := &scribbleWorker{inner: localWorkers(t, 1, ngstVoter(t))[0]}
		pool := newPool(t, []Worker{w}, WithPoolTileSize(tile))
		got := awaitResult(t, pool.Submit(context.Background(), s))
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%d-px tiles: retried baseline: %v", tile, err)
		}
		if got.Retries != 1 {
			t.Fatalf("%d-px tiles: Retries = %d, want the one scribbled attempt", tile, got.Retries)
		}
		if !sameStack(s, before) {
			t.Fatalf("%d-px tiles: the pool wrote the caller's stack", tile)
		}
	}
}

// TestPoolConcurrentSubmitsShareStack: four baselines served at once
// from one shared stack all match the reference. Under -race, any write
// to the shared stack would be reported.
func TestPoolConcurrentSubmitsShareStack(t *testing.T) {
	s := damagedStack(t, 64, 64, 64, 43)
	want := referenceRun(t, s.Clone(), 32)
	pool := newPool(t, localWorkers(t, 3, ngstVoter(t)), WithPoolTileSize(32))
	outs := make([]<-chan *Result, 4)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = pool.Submit(context.Background(), s)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if err := sameResult(awaitResult(t, out), want); err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
}

// TestPoolWarmStackAcrossGeometries: one runner serves 16, 64 and again
// 16 readouts, in two frame sizes, in process and over the worker port.
// Its warm stack grows for the deep stack and is resliced for the
// shallow ones; each result still matches a fresh reference.
func TestPoolWarmStackAcrossGeometries(t *testing.T) {
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("remote=%v", remote), func(t *testing.T) {
			w := localWorkers(t, 1, ngstVoter(t))[0]
			if remote {
				srv := NewServer(w)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				rw, err := Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(rw.Close)
				w = rw
			}
			pool := newPool(t, []Worker{w}, WithPoolTileSize(32))
			seed := uint64(50)
			for _, frame := range [][2]int{{64, 64}, {96, 32}} {
				for _, n := range []int{16, 64, 16} {
					seed += 2
					s := damagedStack(t, frame[0], frame[1], n, seed)
					want := referenceRun(t, s.Clone(), 32)
					if err := sameResult(awaitResult(t, pool.Submit(context.Background(), s)), want); err != nil {
						t.Errorf("%dx%dx%d: %v", frame[0], frame[1], n, err)
					}
				}
			}
		})
	}
}

// TestPoolSubmitAllocatesLessThanOneCopy pins the pool's memory per
// baseline. A warmed pool gathers every tile into its runners' warm
// stacks, so a Submit allocates less than one copy of the stack's pixels;
// fragmenting the stack and cloning each tile per attempt cost two.
func TestPoolSubmitAllocatesLessThanOneCopy(t *testing.T) {
	const w, h, n, runs = 256, 256, 64, 4
	s := damagedStack(t, w, h, n, 47)
	pool := newPool(t, localWorkers(t, 2, ngstVoter(t)), WithPoolTileSize(128))
	submit := func() {
		if res := awaitResult(t, pool.Submit(context.Background(), s)); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	submit() // warm the runners' stacks and the workers' scratch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		submit()
	}
	runtime.ReadMemStats(&after)
	perSubmit := (after.TotalAlloc - before.TotalAlloc) / runs
	stackBytes := uint64(2 * w * h * n)
	t.Logf("%d bytes allocated per Submit of a %d-byte stack", perSubmit, stackBytes)
	if perSubmit >= stackBytes {
		t.Fatalf("a Submit allocates %d bytes, not less than one %d-byte copy of the stack", perSubmit, stackBytes)
	}
}

// malformedStacks are stacks whose frames no kernel can index.
func malformedStacks() map[string]*dataset.Stack {
	return map[string]*dataset.Stack{
		"nil stack":     nil,
		"nil frame":     {Frames: []*dataset.Image{dataset.NewImage(64, 64), nil}},
		"smaller frame": {Frames: []*dataset.Image{dataset.NewImage(64, 64), dataset.NewImage(8, 8)}},
		"short pixels":  {Frames: []*dataset.Image{{Width: 64, Height: 64, Pix: make(dataset.Pixels, 64*63)}}},
	}
}

// TestSubmitRejectsMalformedStack: a stack with a missing or misshapen
// frame is a bad-geometry Result with its run and fragment spans ended,
// not a panic on the submitter or a runner.
func TestSubmitRejectsMalformedStack(t *testing.T) {
	for name, s := range malformedStacks() {
		reg := telemetry.NewRegistry()
		pool := newPool(t, localWorkers(t, 1, nil), WithPoolTileSize(32), WithPoolTelemetry(reg))
		if err := awaitResult(t, pool.Submit(context.Background(), s)).Err; !errors.Is(err, dataset.ErrBadGeometry) {
			t.Errorf("%s: err = %v, want ErrBadGeometry", name, err)
		}
		if got := reg.Snapshot().SpanCounts; got[StageRun] != 1 || got[StageFragment] != 1 {
			t.Errorf("%s: run and fragment spans recorded = %d and %d, want 1 each", name, got[StageRun], got[StageFragment])
		}
	}
}
