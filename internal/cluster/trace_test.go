package cluster

import (
	"context"
	"testing"

	"spaceproc/internal/crreject"
	"spaceproc/internal/telemetry"
)

// traceEvents returns the registry tracer's buffered events keyed by stage.
func traceEvents(t *testing.T, reg *telemetry.Registry) map[string][]telemetry.TraceEvent {
	t.Helper()
	byStage := map[string][]telemetry.TraceEvent{}
	for _, ev := range reg.Tracer().Events() {
		byStage[ev.Stage] = append(byStage[ev.Stage], ev)
	}
	return byStage
}

// rootTraceID asserts every buffered event belongs to one trace and
// returns its ID.
func rootTraceID(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	events := reg.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	id := events[0].TraceID
	for _, ev := range events {
		if ev.TraceID != id {
			t.Fatalf("event %s/%s has trace ID %016x, want %016x",
				ev.Stage, ev.Label, ev.TraceID, id)
		}
	}
	return id
}

// TestTracePropagationOverTCP runs the pipeline against workers served
// over real loopback TCP, each holding its own registry as a stand-in for
// a separate slave-node process, and asserts that the worker-side serve
// spans carry the master's trace ID — both in the worker's own tracer and
// folded back into the master's artifact.
func TestTracePropagationOverTCP(t *testing.T) {
	sc := testScene(t, 11)
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
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	pool := newPool(t, []Worker{remote}, WithPoolTileSize(32), WithPoolTelemetry(masterReg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	masterTrace := rootTraceID(t, masterReg)
	byStage := traceEvents(t, masterReg)
	if len(byStage[StageRun]) != 1 {
		t.Fatalf("want 1 run span, got %d", len(byStage[StageRun]))
	}
	// 64x64 / 32 = 4 tiles, each dispatched, processed, and served.
	for _, stage := range []string{StageDispatch, StageProcess, "serve"} {
		if len(byStage[stage]) != 4 {
			t.Fatalf("want 4 %s spans in the master artifact, got %d", stage, len(byStage[stage]))
		}
	}

	// The folded-back serve spans are children of the master's process
	// spans: same trace, parented on the span ID the request carried.
	procByID := map[uint64]telemetry.TraceEvent{}
	for _, ev := range byStage[StageProcess] {
		procByID[ev.SpanID] = ev
	}
	for _, serve := range byStage["serve"] {
		if serve.TraceID != masterTrace {
			t.Fatalf("serve span trace %016x != master trace %016x", serve.TraceID, masterTrace)
		}
		if _, ok := procByID[serve.ParentID]; !ok {
			t.Fatalf("serve span parent %016x is not a master process span", serve.ParentID)
		}
		if serve.Proc == "master" || serve.Proc == "" {
			t.Fatalf("serve span proc %q, want the worker's identity", serve.Proc)
		}
	}

	// The worker's own registry holds the same spans under the same trace:
	// a slave node's local artifact joins the master's on trace ID.
	workerServe := traceEvents(t, workerReg)["serve"]
	if len(workerServe) != 4 {
		t.Fatalf("want 4 serve spans in the worker registry, got %d", len(workerServe))
	}
	for _, serve := range workerServe {
		if serve.TraceID != masterTrace {
			t.Fatalf("worker-side serve trace %016x != master trace %016x", serve.TraceID, masterTrace)
		}
	}
}

// TestTraceRetryChildSpans drives retries through the remote path and
// asserts the causal chain the tracing layer promises: the retry span is a
// child of the failed dispatch, and the requeued attempt's dispatch span
// parents under the originating dispatch rather than starting a new tree.
func TestTraceRetryChildSpans(t *testing.T) {
	sc := testScene(t, 12)
	reg := telemetry.NewRegistry()

	lw, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&flakyWorker{inner: lw, failures: 2})
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

	pool := newPool(t, []Worker{remote}, WithPoolTileSize(32), WithPoolRetries(3), WithPoolTelemetry(reg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	trace := rootTraceID(t, reg)
	byStage := traceEvents(t, reg)
	if len(byStage[StageRetry]) != 2 {
		t.Fatalf("want 2 retry spans, got %d", len(byStage[StageRetry]))
	}

	dispatchByID := map[uint64]telemetry.TraceEvent{}
	firstAttempt := map[string]telemetry.TraceEvent{} // label -> attempt-0 dispatch
	for _, ev := range byStage[StageDispatch] {
		dispatchByID[ev.SpanID] = ev
		if ev.Args["attempt"] == "0" {
			firstAttempt[ev.Label] = ev
		}
	}

	for _, retry := range byStage[StageRetry] {
		if retry.TraceID != trace {
			t.Fatalf("retry span trace %016x != run trace %016x", retry.TraceID, trace)
		}
		parent, ok := dispatchByID[retry.ParentID]
		if !ok {
			t.Fatalf("retry span parent %016x is not a dispatch span", retry.ParentID)
		}
		if retry.Args["error"] == "" {
			t.Fatal("retry span should carry the worker error")
		}
		if parent.Label != retry.Label {
			t.Fatalf("retry for %s parented under dispatch for %s", retry.Label, parent.Label)
		}
	}

	// Requeued dispatches (attempt > 0) must chain to the originating
	// dispatch of the same tile, not to the run root.
	requeues := 0
	for _, ev := range byStage[StageDispatch] {
		if ev.Args["attempt"] == "0" {
			continue
		}
		requeues++
		origin, ok := firstAttempt[ev.Label]
		if !ok {
			t.Fatalf("requeued dispatch %s has no originating dispatch", ev.Label)
		}
		if ev.ParentID != origin.SpanID {
			t.Fatalf("requeued dispatch for %s parents under %016x, want originating dispatch %016x",
				ev.Label, ev.ParentID, origin.SpanID)
		}
	}
	if requeues != 2 {
		t.Fatalf("want 2 requeued dispatch spans, got %d", requeues)
	}
}

// TestTraceSharedRegistryDedup covers the single-process TCP topology the
// cmd binaries use (one registry wired into both the master and the
// worker servers): the serve span is recorded once by the server and once
// when the response folds back, and must appear once in the artifact.
func TestTraceSharedRegistryDedup(t *testing.T) {
	sc := testScene(t, 13)
	reg := telemetry.NewRegistry()

	lw, err := NewLocalWorker(nil, crreject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lw, WithServerTelemetry(reg))
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

	pool := newPool(t, []Worker{remote}, WithPoolTileSize(32), WithPoolTelemetry(reg))
	if res := <-pool.Submit(context.Background(), sc.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}

	serves := traceEvents(t, reg)["serve"]
	if len(serves) != 4 {
		t.Fatalf("want 4 deduplicated serve spans, got %d", len(serves))
	}
	seen := map[uint64]bool{}
	for _, ev := range serves {
		if seen[ev.SpanID] {
			t.Fatalf("serve span %016x recorded twice", ev.SpanID)
		}
		seen[ev.SpanID] = true
	}
}
