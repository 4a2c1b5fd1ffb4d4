// Command spaceproc-router fronts a fleet of spaceprocd daemons: it
// speaks the same wire protocol and runs the same admission path as a
// daemon (bounded inflight, per-client quotas, shed hints, graceful
// drain), but admitted requests are placed on a consistent-hash ring
// keyed by client/dataset ID and forwarded to the owning daemon —
// failing over along the ring past members ejected by health probes, and
// spilling past members whose queue depth runs hot.
//
// Fleet membership is static, from -nodes:
//
//	spaceproc-router -addr :9040 \
//	    -nodes 10.0.0.1:9035=10.0.0.1:9100,10.0.0.2:9035,10.0.0.3:9035
//
// Each entry is serve-addr or serve-addr=health-addr; with a health
// address the router probes /healthz and keeps the member's /metrics page
// (its inflight gauge drives spillover), without one it falls back to TCP
// dial probes. With -metrics, the router's sidecar also serves the fleet
// view from those pages: /fleet/metrics and /fleet/healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"spaceproc"
	"spaceproc/internal/cmdutil"
)

func main() {
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo).
			Error("run failed", "cmd", "spaceproc-router", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spaceproc-router", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9040", "router listen address")
	metricsAddr := fs.String("metrics", "", "observability sidecar address (empty disables /metrics)")
	nodes := fs.String("nodes", "", "comma-separated fleet members, each addr or addr=health-addr")
	maxInflight := fs.Int("max-inflight", spaceproc.DefaultServeConfig().MaxInflight, "admitted requests before shedding")
	perClient := fs.Int("per-client", 0, "per-client inflight quota (0: global limit only)")
	retryAfter := fs.Duration("retry-after", 50*time.Millisecond, "retry hint carried by shed responses")
	maxReqBytes := fs.Int64("max-request-bytes", 256<<20, "payload budget one request may declare")
	recvTimeout := fs.Duration("recv-timeout", 30*time.Second, "bound on receiving one header or payload frame once it starts arriving")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per member (0: default)")
	ringSeed := fs.Uint64("ring-seed", 0, "consistent-hash placement seed")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "health probe period (0 disables probing)")
	probeFailures := fs.Int("probe-failures", 3, "consecutive failures that eject a member")
	spillDepth := fs.Int("spill-depth", 0, "member queue depth that triggers spillover (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cmdutil.PrintVersion(out, "spaceproc-router")
		return nil
	}
	fleet, err := parseNodes(*nodes)
	if err != nil {
		return err
	}

	logger := spaceproc.NewStructuredLogger(os.Stderr, slog.LevelInfo)
	reg := spaceproc.NewTelemetryRegistry()

	cfg := spaceproc.DefaultRouterConfig()
	cfg.Fleet = fleet
	cfg.MaxInflight = *maxInflight
	cfg.PerClientQuota = *perClient
	cfg.RetryAfter = *retryAfter
	cfg.MaxRequestBytes = *maxReqBytes
	cfg.ReceiveTimeout = *recvTimeout
	cfg.VirtualNodes = *vnodes
	cfg.RingSeed = *ringSeed
	cfg.ProbeInterval = *probeInterval
	cfg.ProbeFailures = *probeFailures
	cfg.SpillDepth = *spillDepth
	cfg.Telemetry = reg
	cfg.Logger = logger

	router, err := spaceproc.NewRouterWith(cfg)
	if err != nil {
		return err
	}
	bound, err := router.Listen(*addr)
	if err != nil {
		router.Close()
		return err
	}
	fmt.Fprintf(out, "routing on %s\n", bound)
	fmt.Fprintf(out, "fleet of %d node(s)\n", len(fleet))
	reg.Tracer().SetProc("spaceproc-router " + bound)

	var sidecar *spaceproc.TelemetryServer
	if *metricsAddr != "" {
		sidecar, err = spaceproc.NewTelemetryServer(reg, *metricsAddr)
		if err != nil {
			router.Close()
			return err
		}
		sidecar.Handle("/debug/slowest", router.SlowestHandler())
		sidecar.Handle("/fleet/metrics", router.Fleet().MetricsHandler())
		sidecar.Handle("/fleet/healthz", router.Fleet().HealthHandler())
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", sidecar.Addr())
		fmt.Fprintf(out, "slowest requests on http://%s/debug/slowest\n", sidecar.Addr())
		fmt.Fprintf(out, "fleet metrics on http://%s/fleet/metrics\n", sidecar.Addr())
	}

	<-ctx.Done()
	fmt.Fprintln(out, "draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := router.Shutdown(drainCtx)
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

// parseNodes splits "-nodes a:1=h:1,b:2" into fleet members.
func parseNodes(s string) ([]spaceproc.ServeNode, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("spaceproc-router: -nodes is required (comma-separated addr or addr=health-addr)")
	}
	var fleet []spaceproc.ServeNode
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		node := spaceproc.ServeNode{Addr: entry}
		if i := strings.IndexByte(entry, '='); i >= 0 {
			node.Addr, node.Health = entry[:i], entry[i+1:]
			if node.Health == "" {
				return nil, fmt.Errorf("spaceproc-router: node %q has an empty health address", entry)
			}
		}
		if node.Addr == "" {
			return nil, fmt.Errorf("spaceproc-router: node %q has an empty serve address", entry)
		}
		fleet = append(fleet, node)
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("spaceproc-router: -nodes lists no members")
	}
	return fleet, nil
}
