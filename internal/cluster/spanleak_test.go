package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// tracerStages collects the set of stages with at least one recorded trace
// event.
func tracerStages(tr *telemetry.Tracer) map[string]int {
	stages := make(map[string]int)
	for _, ev := range tr.Events() {
		stages[ev.Stage]++
	}
	return stages
}

// TestRunSpansEndOnFragmentError is the span-leak regression test: a run
// that dies in dataset.Fragment must still record its run and fragment
// spans (an unended TraceSpan is never recorded, so before the fix the
// trace silently lost the whole run).
func TestRunSpansEndOnFragmentError(t *testing.T) {
	sc := testScene(t, 31)
	reg := telemetry.NewRegistry()
	// 64x64 does not divide by 5 tiles -> Fragment fails.
	m, err := NewMaster(localWorkers(t, 1, nil), WithTileSize(5), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(sc.Observed); !errors.Is(err, dataset.ErrBadGeometry) {
		t.Fatalf("want ErrBadGeometry, got %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.SpanCounts[StageRun]; got != 1 {
		t.Fatalf("run spans recorded = %d, want 1 (leaked on the Fragment error path)", got)
	}
	if got := snap.SpanCounts[StageFragment]; got != 1 {
		t.Fatalf("fragment spans recorded = %d, want 1", got)
	}
	if got := snap.Histograms["pipeline_run"].Count; got != 1 {
		t.Fatalf("pipeline_run histogram count = %d, want 1", got)
	}
	stages := tracerStages(reg.Tracer())
	if stages[StageRun] != 1 || stages[StageFragment] != 1 {
		t.Fatalf("trace events missing run/fragment stages: %v", stages)
	}
	// The export the leak used to corrupt must be valid JSON.
	var buf bytes.Buffer
	if err := reg.Tracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteChrome emitted invalid JSON: %s", buf.Bytes())
	}
}

// TestRunSpansEndOnCancelledRun covers the other leaked exit path: a run
// abandoned through ctx cancellation must still record its run span and
// trace event.
func TestRunSpansEndOnCancelledRun(t *testing.T) {
	sc := testScene(t, 32)
	reg := telemetry.NewRegistry()
	m, err := NewMaster(localWorkers(t, 2, nil), WithTileSize(32), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no tile is ever dispatched
	if _, err := m.RunContext(ctx, sc.Observed); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.SpanCounts[StageRun]; got != 1 {
		t.Fatalf("run spans recorded = %d, want 1 (leaked on the cancellation path)", got)
	}
	if got := snap.Histograms["pipeline_run"].Count; got != 1 {
		t.Fatalf("pipeline_run histogram count = %d, want 1", got)
	}
	if stages := tracerStages(reg.Tracer()); stages[StageRun] != 1 {
		t.Fatalf("trace events missing the run stage: %v", stages)
	}
	var buf bytes.Buffer
	if err := reg.Tracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteChrome emitted invalid JSON: %s", buf.Bytes())
	}
}

// TestLocalWorkerShardsMatchSequential checks that the sharded scratch path
// produces the exact image and correction counters of the classic
// one-goroutine worker.
func TestLocalWorkerShardsMatchSequential(t *testing.T) {
	// Force a multi-shard configuration even on single-CPU machines so the
	// parallel branch of preprocess actually runs (and runs under the
	// race detector).
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	sc := testScene(t, 33)
	pre, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewLocalWorker(pre, crreject.DefaultConfig(), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewLocalWorker(pre, crreject.DefaultConfig(), WithShards(0)) // auto
	if err != nil {
		t.Fatal(err)
	}
	if got, max := par.Shards(), runtime.GOMAXPROCS(0); got != max {
		t.Fatalf("WithShards(0) resolved to %d, want GOMAXPROCS=%d", got, max)
	}
	tiles, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range tiles {
		a, err := seq.ProcessTile(context.Background(), cloneTile(tile))
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.ProcessTile(context.Background(), cloneTile(tile))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Image.Pix {
			if a.Image.Pix[i] != b.Image.Pix[i] {
				t.Fatalf("tile %d: sharded image differs at %d", tile.Index, i)
			}
		}
		// WindowCBit is a most-recent gauge, so only the summed counters are
		// shard-order independent.
		if a.PreStats.Series != b.PreStats.Series ||
			a.PreStats.Corrected != b.PreStats.Corrected ||
			a.PreStats.BitsWindowA != b.PreStats.BitsWindowA ||
			a.PreStats.BitsWindowB != b.PreStats.BitsWindowB ||
			a.PreStats.GuardRejected != b.PreStats.GuardRejected {
			t.Fatalf("tile %d: sharded stats %+v != sequential %+v", tile.Index, b.PreStats, a.PreStats)
		}
	}
}

// TestWithShardsClamped checks the shard knob's bounds: negative and
// oversized values resolve into [1, GOMAXPROCS].
func TestWithShardsClamped(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, n := range []int{-3, 0, 1, max, max + 7} {
		w, err := NewLocalWorker(nil, crreject.DefaultConfig(), WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		got := w.Shards()
		if got < 1 || got > max {
			t.Fatalf("WithShards(%d) resolved to %d, outside [1,%d]", n, got, max)
		}
		if n >= 1 && n <= max && got != n {
			t.Fatalf("WithShards(%d) resolved to %d, want exact", n, got)
		}
	}
}

// TestLocalWorkerPlaneShardsMatchScalar is the plane-times-shard
// composition gate: the word-aligned sharded plane-major path must
// reproduce the sequential scalar per-series pass bit for bit for every
// series preprocessor, including shard counts that split the word range
// unevenly.
func TestLocalWorkerPlaneShardsMatchScalar(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	scene := testScene(t, 77)
	scalarCfg := core.DefaultNGSTConfig()
	scalarCfg.ScalarOnly = true
	ngstScalar, err := core.NewAlgoNGST(scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	ngstPlane, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		scalar, plane core.SeriesPreprocessor
	}{
		{"ngst", ngstScalar, ngstPlane},
		{"median3", core.Median3{}, core.Median3{}},
		{"majoritybit3", core.MajorityBit3{}, core.MajorityBit3{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// 3 shards over the 64x64 scene's 64 words: the split is uneven
			// (22+22+20 words) and the final shard ends off a shard-count
			// multiple, exercising the clamped tail range.
			w, err := NewLocalWorker(tc.plane, crreject.DefaultConfig(), WithShards(3))
			if err != nil {
				t.Fatal(err)
			}
			got := scene.Observed.Clone()
			var gotStats core.VoteStats
			if err := preprocess(context.Background(), tc.plane, got, w.Shards(), &gotStats); err != nil {
				t.Fatal(err)
			}
			want := scene.Observed.Clone()
			var wantStats core.VoteStats
			var ser dataset.Series
			for y := 0; y < want.Height(); y++ {
				for x := 0; x < want.Width(); x++ {
					ser = want.SeriesAtBuf(x, y, ser)
					if a, ok := tc.scalar.(*core.AlgoNGST); ok {
						a.ProcessSeriesScratch(ser, nil, &wantStats)
					} else {
						tc.scalar.ProcessSeries(ser)
					}
					want.SetSeriesAt(x, y, ser)
				}
			}
			for f := range want.Frames {
				for i := range want.Frames[f].Pix {
					if want.Frames[f].Pix[i] != got.Frames[f].Pix[i] {
						t.Fatalf("frame %d pixel %d: scalar %04x sharded-plane %04x",
							f, i, want.Frames[f].Pix[i], got.Frames[f].Pix[i])
					}
				}
			}
			// WindowCBit is a most-recent gauge, so only the summed counters
			// are shard-order independent.
			if wantStats.Series != gotStats.Series ||
				wantStats.Corrected != gotStats.Corrected ||
				wantStats.BitsWindowA != gotStats.BitsWindowA ||
				wantStats.BitsWindowB != gotStats.BitsWindowB ||
				wantStats.GuardRejected != gotStats.GuardRejected {
				t.Fatalf("stats scalar %+v sharded-plane %+v", wantStats, gotStats)
			}
		})
	}
}
