package main

import (
	"context"
	"strings"
	"testing"

	"spaceproc"
)

// startDaemon boots an in-process serve daemon with default preprocessing
// so -verify's local replay matches.
func startDaemon(t *testing.T) string {
	t.Helper()
	pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: 80})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for i := 0; i < 4; i++ {
		lw, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(lw)
	}
	daemon, err := spaceproc.NewDaemonWith(pool, spaceproc.DefaultServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Close)
	addr, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestVersionFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-version"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "loadgen ") {
		t.Fatalf("version output %q", sb.String())
	}
}

func TestRejectsNonPositiveCounts(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-clients", "0"}, &sb); err == nil {
		t.Fatal("want error for zero clients")
	}
}

func TestLoadgenVerifiedRoundTrip(t *testing.T) {
	addr := startDaemon(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr,
		"-clients", "2",
		"-requests", "2",
		"-width", "64", "-height", "64", "-readouts", "8",
		"-verify",
	}, &sb)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "4 ok, 0 failed") {
		t.Fatalf("unexpected summary:\n%s", out)
	}
	if !strings.Contains(out, "verify: 0 mismatched") {
		t.Fatalf("verification not clean:\n%s", out)
	}
	if !strings.Contains(out, "client_requests_total") {
		t.Fatalf("telemetry summary missing:\n%s", out)
	}
}

// TestLoadgenFleetVerifiedRoundTrip drives two daemons through -fleet:
// the per-request keys spread the load, and every served result still
// verifies bit-identical against the in-process replay.
func TestLoadgenFleetVerifiedRoundTrip(t *testing.T) {
	addrA := startDaemon(t)
	addrB := startDaemon(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-fleet", addrA + "," + addrB,
		"-clients", "2",
		"-requests", "2",
		"-width", "64", "-height", "64", "-readouts", "8",
		"-verify",
	}, &sb)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "4 ok, 0 failed") {
		t.Fatalf("unexpected summary:\n%s", out)
	}
	if !strings.Contains(out, "verify: 0 mismatched") {
		t.Fatalf("verification not clean:\n%s", out)
	}
}

func TestLoadgenUnreachableDaemon(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", "127.0.0.1:1", "-clients", "1", "-requests", "1",
	}, &sb)
	if err == nil {
		t.Fatal("want dial error")
	}
}
