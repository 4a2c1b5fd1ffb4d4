package cluster

import (
	"context"
	"io"
	"maps"
	"net/http"
	"strings"
	"testing"

	"spaceproc/internal/crreject"
	"spaceproc/internal/telemetry"
)

// TestMasterTelemetryCountsTiles checks that a clean instrumented run
// records each pipeline stage exactly once per instance (one run, one
// fragment and one compress per baseline; one dispatch, process and blit
// per tile) and per-worker latency.
func TestMasterTelemetryCountsTiles(t *testing.T) {
	sc := testScene(t, 21)
	reg := telemetry.NewRegistry()
	pool := newPool(t, localWorkers(t, 2, nil), WithPoolTileSize(32), WithPoolTelemetry(reg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	snap := reg.Snapshot()
	const tiles = 4 // 64x64 at 32-pixel tiles
	if got := snap.Counters["pipeline_tiles_total"]; got != tiles {
		t.Fatalf("tiles_total = %d, want %d", got, tiles)
	}
	if got := snap.Counters["pipeline_tiles_completed_total"]; got != tiles {
		t.Fatalf("tiles_completed = %d, want %d", got, tiles)
	}
	want := map[string]int64{
		StageRun: 1, StageFragment: 1, StageCompress: 1,
		StageDispatch: tiles, StageProcess: tiles, StageBlit: tiles,
	}
	if !maps.Equal(snap.SpanCounts, want) {
		t.Fatalf("span counts = %v, want %v", snap.SpanCounts, want)
	}
	if snap.Gauges["pipeline_workers"] != 2 {
		t.Fatalf("pipeline_workers = %v, want 2", snap.Gauges["pipeline_workers"])
	}
	var perWorker int64
	for name, h := range snap.HistogramStates {
		if strings.HasPrefix(name, "pipeline_worker_") {
			perWorker += h.Count
		}
	}
	if perWorker != tiles {
		t.Fatalf("per-worker histogram counts sum to %d, want %d", perWorker, tiles)
	}
	if snap.HistogramStates["pipeline_tile_process"].Count != tiles {
		t.Fatalf("tile_process count = %d, want %d", snap.HistogramStates["pipeline_tile_process"].Count, tiles)
	}
}

// TestMasterTelemetryRetries checks that the retry counter and the retry
// span trace both agree with the Result's own count, and that every
// attempt is one dispatch and one process span.
func TestMasterTelemetryRetries(t *testing.T) {
	sc := testScene(t, 22)
	good, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyWorker{inner: good, failures: 2}
	reg := telemetry.NewRegistry()
	pool := newPool(t, []Worker{flaky}, WithPoolTileSize(32), WithPoolRetries(3), WithPoolTelemetry(reg))
	res := <-pool.Submit(context.Background(), sc.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["pipeline_tile_retries_total"]; got != int64(res.Retries) {
		t.Fatalf("retry counter = %d, Result.Retries = %d", got, res.Retries)
	}
	if got := snap.SpanCounts[StageRetry]; got != int64(res.Retries) {
		t.Fatalf("retry spans = %d, Result.Retries = %d", got, res.Retries)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	// Four tiles plus the two failed attempts: six dispatches and six
	// process spans, two of which ended in a retry.
	want := map[string]int64{
		StageRun: 1, StageFragment: 1, StageCompress: 1,
		StageDispatch: 6, StageProcess: 6, StageRetry: 2, StageBlit: 4,
	}
	if !maps.Equal(snap.SpanCounts, want) {
		t.Fatalf("span counts = %v, want %v", snap.SpanCounts, want)
	}
	if snap.Counters["pipeline_tile_failures_total"] != 0 {
		t.Fatalf("failures counter = %d, want 0", snap.Counters["pipeline_tile_failures_total"])
	}
}

// TestTCPSpanCountsPerProcess runs a traced pipeline over loopback TCP
// with master and worker on separate registries, as on separate nodes.
// Each registry counts the spans its own process recorded: the worker
// counts every serve once, and the master counts none, although the
// folded-back serve spans join its trace. Merging the two /metrics pages,
// as the router's /fleet/metrics does, therefore counts each serve once.
func TestTCPSpanCountsPerProcess(t *testing.T) {
	sc := testScene(t, 26)
	masterReg := telemetry.NewRegistry()
	workerReg := telemetry.NewRegistry()
	lw, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lw, WithServerTelemetry(workerReg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pool := newPool(t, []Worker{rw}, WithPoolTileSize(32), WithPoolTelemetry(masterReg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	const tiles = 4
	master, worker := masterReg.Snapshot(), workerReg.Snapshot()
	wantMaster := map[string]int64{
		StageRun: 1, StageFragment: 1, StageCompress: 1,
		StageDispatch: tiles, StageProcess: tiles, StageBlit: tiles,
	}
	if !maps.Equal(master.SpanCounts, wantMaster) {
		t.Fatalf("master span counts = %v, want %v", master.SpanCounts, wantMaster)
	}
	if want := map[string]int64{"serve": tiles}; !maps.Equal(worker.SpanCounts, want) {
		t.Fatalf("worker span counts = %v, want %v", worker.SpanCounts, want)
	}
	var merged telemetry.Snapshot
	for _, snap := range []telemetry.Snapshot{master, worker} {
		var page strings.Builder
		if err := snap.WriteText(&page); err != nil {
			t.Fatal(err)
		}
		parsed, err := telemetry.ParseText(strings.NewReader(page.String()))
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(parsed)
	}
	if got := merged.SpanCounts["serve"]; got != tiles {
		t.Fatalf("merged pages count %d serve spans, want %d", got, tiles)
	}
}

// TestMasterTelemetryFailures checks the permanent-failure path: the
// failure counter fires and the run errors.
func TestMasterTelemetryFailures(t *testing.T) {
	sc := testScene(t, 23)
	alwaysBad := &flakyWorker{inner: nil, failures: 1 << 30}
	reg := telemetry.NewRegistry()
	pool := newPool(t, []Worker{alwaysBad}, WithPoolTileSize(32), WithPoolRetries(1), WithPoolTelemetry(reg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err == nil {
		t.Fatal("run should fail when every tile exhausts its retries")
	}
	snap := reg.Snapshot()
	if snap.Counters["pipeline_tile_failures_total"] == 0 {
		t.Fatal("failure counter not incremented")
	}
}

// TestRunReportsEveryFailure checks that a run with several permanently
// failed tiles surfaces all of them, not just the first drained error.
func TestRunReportsEveryFailure(t *testing.T) {
	sc := testScene(t, 25)
	alwaysBad := &flakyWorker{inner: nil, failures: 1 << 30}
	pool := newPool(t, []Worker{alwaysBad}, WithPoolTileSize(32), WithPoolRetries(1))
	err := (<-pool.Submit(context.Background(), sc.Observed)).Err
	if err == nil {
		t.Fatal("run should fail")
	}
	// 64x64 at 32-pixel tiles: all four tiles fail and must all be named.
	if got := strings.Count(err.Error(), "failed permanently"); got != 4 {
		t.Fatalf("error names %d failed tiles, want 4:\n%v", got, err)
	}
}

// TestServerSidecarServesObservability spins up a TCP worker with an HTTP
// telemetry sidecar over its registry, the way spaceprocd runs one, and
// checks /metrics, /healthz and /debug/pprof/ respond.
func TestServerSidecarServesObservability(t *testing.T) {
	sc := testScene(t, 24)
	lw, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := NewServer(lw, WithServerTelemetry(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Telemetry() != reg {
		t.Fatal("server should report the registry it was given")
	}
	sidecar, err := telemetry.NewServer(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sidecar.Close()

	rw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	pool := newPool(t, []Worker{rw}, WithPoolTileSize(32))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	scAddr := sidecar.Addr()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + scAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "counter server_requests_total 4") {
		t.Fatalf("/metrics missing served-request count:\n%s", metrics)
	}
	if !strings.Contains(metrics, "spans serve 4") {
		t.Fatalf("/metrics missing serve spans:\n%s", metrics)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz body %q", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ unexpected body %q", body)
	}
}
