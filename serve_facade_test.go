package spaceproc_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"spaceproc"
)

// TestServeFacade round-trips a baseline through the serving facade: a
// daemon over a real worker pool, dialed by the retrying client.
func TestServeFacade(t *testing.T) {
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	lw, err := spaceproc.NewLocalWorker(nil, spaceproc.DefaultCRConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.AddWorker(lw)

	reg := spaceproc.NewTelemetryRegistry()
	cfg := spaceproc.DefaultServeConfig()
	cfg.MaxInflight = 4
	cfg.PerClientQuota = 2
	cfg.RetryAfter = 10 * time.Millisecond
	cfg.BatchMax, cfg.BatchWindow = 4, time.Millisecond
	cfg.Telemetry = reg
	daemon, err := spaceproc.NewDaemonWith(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	creg := spaceproc.NewTelemetryRegistry()
	client, err := spaceproc.Dial(addr,
		spaceproc.WithServeClientID("facade"),
		spaceproc.WithServeRetryPolicy(3, time.Millisecond, 10*time.Millisecond),
		spaceproc.WithServeClientDialBackoff(2, time.Millisecond),
		spaceproc.WithServeTelemetry(creg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stack := spaceproc.NewStack(4, 32, 32)
	for _, f := range stack.Frames {
		for i := range f.Pix {
			f.Pix[i] = uint16(1000 + i%7)
		}
	}
	res, err := client.Process(context.Background(), stack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image == nil || res.Image.Width != 32 || len(res.Compressed) == 0 {
		t.Fatalf("served result incomplete: %+v", res)
	}
	if res.CompressionRatio() <= 0 {
		t.Fatal("compression ratio must be positive")
	}
	if got := reg.Snapshot().Counters["serve_requests_accepted_total"]; got != 1 {
		t.Fatalf("serve_requests_accepted_total = %d", got)
	}
	if got := creg.Snapshot().Counters["client_requests_total"]; got != 1 {
		t.Fatalf("client_requests_total = %d", got)
	}
	if !errors.Is(spaceproc.ErrServeShed, spaceproc.ErrServeShed) {
		t.Fatal("ErrServeShed must be comparable with errors.Is")
	}
}
