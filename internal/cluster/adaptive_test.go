package cluster

import (
	"context"
	"slices"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func testModel() CostModel {
	return CostModel{
		Lambdas:  []int{0, 20, 50, 80, 100},
		UnitCost: []float64{0, 8000, 11000, 13000, 14000},
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("good model invalid: %v", err)
	}
	bad := testModel()
	bad.UnitCost = bad.UnitCost[:2]
	if err := bad.Validate(); err == nil {
		t.Error("size mismatch should be invalid")
	}
	bad = testModel()
	bad.Lambdas = []int{50, 20}
	bad.UnitCost = []float64{1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("unsorted lambdas should be invalid")
	}
	bad = testModel()
	bad.UnitCost[1] = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost should be invalid")
	}
}

func TestCostModelPick(t *testing.T) {
	m := testModel()
	const series = 1024
	if got := m.Pick(0, series); got != 0 {
		t.Fatalf("zero budget picked %d", got)
	}
	if got := m.Pick(1e12, series); got != 100 {
		t.Fatalf("huge budget picked %d", got)
	}
	// Budget that fits 11000*1024 but not 13000*1024.
	if got := m.Pick(12000*series, series); got != 50 {
		t.Fatalf("mid budget picked %d", got)
	}
}

func TestAdaptiveWorkerHonorsBudget(t *testing.T) {
	st, err := synth.GaussianStack(synth.SeriesConfig{N: 16, Initial: 20000, Sigma: 100}, 8, 8, 2000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := dataset.Fragment(st, 8)
	if err != nil {
		t.Fatal(err)
	}

	richCfg := DefaultAdaptiveConfig(testModel())
	richCfg.Budget = 1e12
	rich, err := NewAdaptive(richCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rich.ProcessTile(context.Background(), cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}
	if rich.LastLambda() != 100 {
		t.Fatalf("rich budget used Lambda %d, want 100", rich.LastLambda())
	}

	poorCfg := DefaultAdaptiveConfig(testModel())
	poorCfg.Budget = 1
	poor, err := NewAdaptive(poorCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poor.ProcessTile(context.Background(), cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}
	if poor.LastLambda() != 0 {
		t.Fatalf("starved budget used Lambda %d, want 0", poor.LastLambda())
	}
}

func TestAdaptiveWorkerInPipeline(t *testing.T) {
	sc := testScene(t, 11)
	cfg := DefaultAdaptiveConfig(testModel())
	cfg.Budget = 1e12
	w, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, []Worker{w}, WithPoolTileSize(32))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Image.Width != 64 {
		t.Fatal("pipeline output malformed")
	}
}

// TestAdaptiveWorkerReportsPreStats checks that the adaptive worker runs
// the same stack kernel as a LocalWorker and reports what it corrected: on
// a fault-injected stack every tile's PreStats must be nonzero and equal
// those of a LocalWorker running AlgoNGST at the sensitivity the adaptive
// worker picked, with bit-identical pixels.
func TestAdaptiveWorkerReportsPreStats(t *testing.T) {
	observed := testScene(t, 13).Observed
	fault.Uncorrelated{Gamma0: 0.01}.InjectStack(observed, rng.New(14))
	tiles, err := dataset.Fragment(observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAdaptiveConfig(testModel())
	cfg.Budget = 13000 * 32 * 32 // fits Lambda 80, not 100
	aw, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: cfg.Upsilon, Sensitivity: 80})
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLocalWorker(pre, cfg.Rejection)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range tiles {
		gotTile, wantTile := cloneTile(tile), cloneTile(tile)
		got, err := aw.ProcessTile(context.Background(), gotTile)
		if err != nil {
			t.Fatal(err)
		}
		if aw.LastLambda() != 80 {
			t.Fatalf("tile %d: adaptive worker picked Lambda %d, want 80", tile.Index, aw.LastLambda())
		}
		want, err := lw.ProcessTile(context.Background(), wantTile)
		if err != nil {
			t.Fatal(err)
		}
		if got.PreStats.Series == 0 || got.PreStats.Corrected == 0 {
			t.Fatalf("tile %d: adaptive PreStats %+v report no preprocessing", tile.Index, got.PreStats)
		}
		if got.PreStats != want.PreStats {
			t.Fatalf("tile %d: adaptive PreStats %+v, LocalWorker %+v", tile.Index, got.PreStats, want.PreStats)
		}
		for f := range wantTile.Stack.Frames {
			if !slices.Equal(gotTile.Stack.Frames[f].Pix, wantTile.Stack.Frames[f].Pix) {
				t.Fatalf("tile %d frame %d: adaptive and LocalWorker preprocessing differ", tile.Index, f)
			}
		}
		if !slices.Equal(got.Image.Pix, want.Image.Pix) || got.Stats != want.Stats {
			t.Fatalf("tile %d: adaptive and LocalWorker integrations differ", tile.Index)
		}
	}
}

func TestAdaptiveWorkerErrors(t *testing.T) {
	if _, err := NewAdaptive(AdaptiveConfig{Upsilon: 4, Budget: 1, Rejection: crreject.DefaultConfig()}); err == nil {
		t.Error("empty model should error")
	}
	badCfg := DefaultAdaptiveConfig(testModel())
	badCfg.Budget = -1
	if _, err := NewAdaptive(badCfg); err == nil {
		t.Error("negative budget should error")
	}
	okCfg := DefaultAdaptiveConfig(testModel())
	okCfg.Budget = 1
	w, err := NewAdaptive(okCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ProcessTile(context.Background(), dataset.Tile{}); err == nil {
		t.Error("empty tile should error")
	}
}

// TestAdaptiveConfigConstruction pins the AdaptiveConfig path that replaced
// the removed positional NewAdaptiveWorker shim: a config assembled field by
// field builds a working worker equivalent to the old positional call.
func TestAdaptiveConfigConstruction(t *testing.T) {
	w, err := NewAdaptive(AdaptiveConfig{
		Model:     testModel(),
		Upsilon:   4,
		Budget:    1,
		Rejection: crreject.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := synth.GaussianStack(synth.SeriesConfig{N: 16, Initial: 20000, Sigma: 100}, 8, 8, 2000, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := dataset.Fragment(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ProcessTile(context.Background(), cloneTile(tiles[0])); err != nil {
		t.Fatal(err)
	}
	if w.LastLambda() != 0 {
		t.Fatalf("budget 1 used Lambda %d, want 0", w.LastLambda())
	}
}
