package spaceproc_test

import (
	"context"
	"strings"
	"testing"

	"spaceproc"
)

// TestTelemetrySnapshotLargeBaseline is the observability acceptance run:
// a full 1024x1024 baseline through the instrumented Figure 1 pipeline
// must yield per-stage span counts, per-worker latency percentiles, and
// preprocessing correction counters in one snapshot.
func TestTelemetrySnapshotLargeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("1024x1024 baseline run")
	}
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 1024, 1024
	cfg.Readouts = 8 // enough temporal redundancy for Upsilon=4 voting, still fast
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	spaceproc.Uncorrelated{Gamma0: 0.005}.InjectStack(scene.Observed, spaceproc.NewRNGStream(7, 1))

	reg := spaceproc.NewTelemetryRegistry()
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pre.Instrument(reg)
	pool, err := spaceproc.NewWorkerPool(
		spaceproc.WithPoolTileSize(128), spaceproc.WithPoolTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 4; i++ {
		w, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(w)
	}
	if res := <-pool.Submit(context.Background(), scene.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	snap := reg.Snapshot()
	const tiles = 64 // 1024/128 squared
	if got := snap.Counters["pipeline_tiles_completed_total"]; got != tiles {
		t.Fatalf("tiles completed = %d, want %d", got, tiles)
	}
	for _, stage := range []string{
		spaceproc.StageFragment, spaceproc.StageDispatch, spaceproc.StageProcess,
		spaceproc.StageBlit, spaceproc.StageCompress, spaceproc.StageRun,
	} {
		if snap.SpanCounts[stage] == 0 {
			t.Fatalf("stage %q recorded no spans: %v", stage, snap.SpanCounts)
		}
	}
	var instrumented int
	for name, st := range snap.HistogramStates {
		if !strings.HasPrefix(name, "pipeline_worker_") {
			continue
		}
		h := st.Summary()
		if h.Count > 0 {
			instrumented++
			if h.P50 <= 0 || h.P99 < h.P50 {
				t.Fatalf("worker histogram %s has implausible quantiles: %+v", name, h)
			}
		}
	}
	if instrumented == 0 {
		t.Fatal("no per-worker latency percentiles recorded")
	}
	if snap.Counters["preprocess_series_total"] == 0 {
		t.Fatal("preprocessing series counter empty")
	}
	if snap.Counters["preprocess_corrected_total"] == 0 {
		t.Fatal("no corrections counted despite injected faults")
	}
	// The exposition renders without error and mentions the headline data.
	text := snap.Render()
	for _, want := range []string{"pipeline_tiles_completed_total", "preprocess_corrected_total", "process"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered snapshot missing %q", want)
		}
	}
}
