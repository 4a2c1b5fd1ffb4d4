package spaceproc

import (
	"context"
	"io"
	"log/slog"

	"spaceproc/internal/cluster"
	"spaceproc/internal/telemetry"
)

// Pipeline observability (internal/telemetry): a dependency-free metrics
// registry the cluster master, TCP workers, preprocessing algorithms, and
// the mission runner all report into — counters, gauges, latency
// histograms with quantile summaries, and a per-stage span trace. The
// registry is passive until wired in; uninstrumented pipelines pay
// nothing.
type (
	// TelemetryRegistry collects counters, gauges, histograms and, through
	// its Tracer, spans.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a consistent point-in-time copy of a registry,
	// or a parsed /metrics page (ParseTelemetryText); its SpanCounts hold
	// the per-stage span totals of the registry's Tracer, and Merge folds
	// pages from many nodes into one.
	TelemetrySnapshot = telemetry.Snapshot
	// HistogramSummary reports count/min/mean/p50/p95/p99/max for one
	// latency histogram.
	HistogramSummary = telemetry.HistogramSummary
	// TraceContext is the wire-propagated position of an operation inside
	// a distributed trace: the trace ID plus the current span ID.
	TraceContext = telemetry.TraceContext
	// TraceEvent is one completed span held by a Tracer.
	TraceEvent = telemetry.TraceEvent
	// Tracer records every span: it counts them per stage and keeps the
	// traced ones in a bounded buffer, exported as Chrome trace-event JSON
	// via WriteChrome or /debug/trace.
	Tracer = telemetry.Tracer
	// TraceSpan is an open span handle minted by a Tracer; End records it.
	TraceSpan = telemetry.TraceSpan
	// TelemetryServer serves /metrics, /healthz and /debug/pprof/ for a
	// registry.
	TelemetryServer = telemetry.Server
	// HistogramState is the mergeable form of a latency histogram:
	// exact count/sum/min/max plus power-of-two buckets, so an
	// aggregation tier can combine per-node histograms losslessly.
	HistogramState = telemetry.HistogramState
	// WorkerServerOption configures a WorkerServer.
	WorkerServerOption = cluster.ServerOption
	// AdaptiveConfig parameterizes an AdaptiveWorker.
	AdaptiveConfig = cluster.AdaptiveConfig
)

// Pipeline stage names used in span records (see TelemetrySnapshot.SpanCounts).
const (
	StageFragment = cluster.StageFragment
	StageDispatch = cluster.StageDispatch
	StageProcess  = cluster.StageProcess
	StageRetry    = cluster.StageRetry
	StageBlit     = cluster.StageBlit
	StageCompress = cluster.StageCompress
	StageRun      = cluster.StageRun
)

// NewTelemetryRegistry returns an empty registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// WithPoolTelemetry instruments a WorkerPool: per-tile dispatch/process/
// retry/blit spans, per-worker latency histograms, pipeline_* counters,
// the pool health gauges (pipeline_pool_workers_healthy,
// pipeline_pool_workers_quarantined, pipeline_pool_queue_depth) and the
// circuit open/close counters land in reg.
func WithPoolTelemetry(reg *TelemetryRegistry) WorkerPoolOption {
	return cluster.WithPoolTelemetry(reg)
}

// WithPoolLogger routes a WorkerPool's retry/quarantine/readmission
// diagnostics into l.
func WithPoolLogger(l *slog.Logger) WorkerPoolOption { return cluster.WithPoolLogger(l) }

// WithWorkerServerTelemetry instruments a WorkerServer's request counters
// and serve latency.
func WithWorkerServerTelemetry(reg *TelemetryRegistry) WorkerServerOption {
	return cluster.WithServerTelemetry(reg)
}

// NewTelemetryServer serves reg's observability surface on addr
// ("127.0.0.1:0" picks a free port; see TelemetryServer.Addr).
func NewTelemetryServer(reg *TelemetryRegistry, addr string) (*TelemetryServer, error) {
	return telemetry.NewServer(reg, addr)
}

// ParseTelemetryText parses a /metrics text exposition into a snapshot
// that can Merge with other nodes' pages. Malformed lines are skipped; a
// read fault returns the lines parsed so far alongside the error.
func ParseTelemetryText(r io.Reader) (TelemetrySnapshot, error) {
	return telemetry.ParseText(r)
}

// DefaultAdaptiveConfig returns an adaptive-worker config over the model
// with the paper's Upsilon = 4 and default rejection parameters.
func DefaultAdaptiveConfig(model CostModel) AdaptiveConfig {
	return cluster.DefaultAdaptiveConfig(model)
}

// NewAdaptive validates cfg and builds a budgeted worker.
func NewAdaptive(cfg AdaptiveConfig) (*AdaptiveWorker, error) { return cluster.NewAdaptive(cfg) }

// ContextWithTrace returns ctx carrying tracer and the trace position tc;
// instrumented components (WorkerPool, RemoteWorker, mission stages)
// continue the trace from it.
func ContextWithTrace(ctx context.Context, tracer *Tracer, tc TraceContext) context.Context {
	return telemetry.ContextWithTrace(ctx, tracer, tc)
}

// TraceFromContext returns the trace position carried by ctx, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	return telemetry.TraceFromContext(ctx)
}

// TracerFromContext returns the tracer carried by ctx, or nil.
func TracerFromContext(ctx context.Context) *Tracer { return telemetry.TracerFromContext(ctx) }

// SeedTraceIDs reseeds the process-wide trace/span ID generator; tests use
// it for reproducible IDs.
func SeedTraceIDs(seed, stream uint64) { telemetry.SeedTraceIDs(seed, stream) }

// NewStructuredLogger returns a slog.Logger writing key=value text to w at
// the given level, stamping trace_id/span_id from any trace carried by the
// log call's context.
func NewStructuredLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return telemetry.NewLogger(w, level)
}

// WithWorkerServerLogger routes a WorkerServer's serve failures into l.
func WithWorkerServerLogger(l *slog.Logger) WorkerServerOption {
	return cluster.WithServerLogger(l)
}
