// Command spaceprocd is the preprocessing-as-a-service daemon: it owns a
// worker pool running the NGST preprocessing + CR-rejection pipeline and
// serves baselines submitted over TCP, with admission control (bounded
// inflight, load shedding with retry-after hints, per-client quotas),
// dynamic batching onto the pool, and a graceful drain on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"spaceproc"
	"spaceproc/internal/cmdutil"
)

func main() {
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo).
			Error("run failed", "cmd", "spaceprocd", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spaceprocd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9035", "serve listen address")
	metricsAddr := fs.String("metrics", "", "observability sidecar address (empty disables /metrics)")
	workers := fs.Int("workers", spaceproc.DefaultWorkers, "worker count")
	tile := fs.Int("tile", spaceproc.TileSize, "fragment edge length")
	lambda := fs.Int("sensitivity", 80, "preprocessing sensitivity Lambda (0 disables preprocessing)")
	upsilon := fs.Int("upsilon", 4, "neighbors consulted per pixel")
	maxInflight := fs.Int("max-inflight", spaceproc.DefaultWorkers, "admitted requests before shedding")
	perClient := fs.Int("per-client", 0, "per-client inflight quota (0: global limit only)")
	retryAfter := fs.Duration("retry-after", 50*time.Millisecond, "retry hint carried by shed responses")
	batchMax := fs.Int("batch-max", 8, "requests per pool submission wave (<= 1 disables batching)")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "max wait for a batch to fill (0 disables batching)")
	maxReqBytes := fs.Int64("max-request-bytes", 256<<20, "payload budget one request may declare")
	recvTimeout := fs.Duration("recv-timeout", 30*time.Second, "bound on receiving one header or payload frame once it starts arriving")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain")
	walDir := fs.String("wal-dir", "", "write-ahead log directory for admitted requests (empty disables)")
	walSync := fs.Bool("wal-sync", true, "fsync every WAL append and commit")
	dedupeCap := fs.Int("dedupe", 0, "content-addressed dedupe cache entries (0 disables)")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cmdutil.PrintVersion(out, "spaceprocd")
		return nil
	}

	logger := spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo)
	reg := spaceproc.NewTelemetryRegistry()

	var pre spaceproc.SeriesPreprocessor
	if *lambda > 0 {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: *upsilon, Sensitivity: *lambda})
		if err != nil {
			return err
		}
		a.Instrument(reg)
		pre = a
	}

	pool, err := spaceproc.NewWorkerPool(
		spaceproc.WithPoolTileSize(*tile),
		spaceproc.WithPoolTelemetry(reg),
		spaceproc.WithPoolLogger(logger),
	)
	if err != nil {
		return err
	}
	defer pool.Close()
	for i := 0; i < *workers; i++ {
		lw, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			return err
		}
		pool.AddWorker(lw)
	}

	scfg := spaceproc.DefaultServeConfig()
	scfg.MaxInflight = *maxInflight
	scfg.PerClientQuota = *perClient
	scfg.RetryAfter = *retryAfter
	scfg.BatchMax = *batchMax
	scfg.BatchWindow = *batchWindow
	scfg.MaxRequestBytes = *maxReqBytes
	scfg.ReceiveTimeout = *recvTimeout
	scfg.WALDir = *walDir
	scfg.WALSync = *walSync
	scfg.DedupeCap = *dedupeCap
	scfg.Telemetry = reg
	scfg.Logger = logger
	daemon, err := spaceproc.NewDaemonWith(pool, scfg)
	if err != nil {
		return err
	}
	// Replay admitted-but-unserved requests a previous run's crash left in
	// the WAL before taking traffic: results commit their entries and warm
	// the dedupe cache, so clients retrying the lost requests are answered
	// bit-identically without recomputation.
	if *walDir != "" {
		replayed, err := daemon.ReplayWAL(ctx)
		if err != nil {
			daemon.Close()
			return fmt.Errorf("wal replay: %w", err)
		}
		fmt.Fprintf(out, "replayed %d wal entries\n", replayed)
	}
	bound, err := daemon.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving on %s\n", bound)
	// Name this process's row in merged Chrome trace views, so spans
	// forwarded from routers and clients land under distinct pids.
	reg.Tracer().SetProc("spaceprocd " + bound)

	var sidecar *spaceproc.TelemetryServer
	if *metricsAddr != "" {
		sidecar, err = spaceproc.NewTelemetryServer(reg, *metricsAddr)
		if err != nil {
			daemon.Close()
			return err
		}
		sidecar.Handle("/debug/slowest", daemon.SlowestHandler())
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", sidecar.Addr())
		fmt.Fprintf(out, "slowest requests on http://%s/debug/slowest\n", sidecar.Addr())
	}

	<-ctx.Done()
	fmt.Fprintln(out, "draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := daemon.Shutdown(drainCtx)
	pool.Close()
	if sidecar != nil {
		if err := sidecar.Shutdown(drainCtx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(out, "drained")
	return nil
}
