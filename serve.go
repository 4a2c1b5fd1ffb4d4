package spaceproc

import (
	"log/slog"
	"time"

	"spaceproc/internal/serve"
)

// Preprocessing as a service (internal/serve): a daemon that runs client
// baselines through a shared WorkerPool, with admission control, dynamic
// batching, and graceful drain; a consistent-hash router that fronts a
// fleet of those daemons with the identical admission path; and the
// retrying Go client, optionally fleet-aware.
//
// Each is built one way. Daemons and routers take a ServeConfig
// (NewDaemonWith, NewRouterWith) used as given, so start from
// DefaultServeConfig or DefaultRouterConfig. Clients take ServeOptions
// (Dial, DialFleet), which set only client fields.
type (
	// ServeDaemon accepts baselines over TCP and answers with the
	// repaired stack, its downlink payload, and the pipeline forensics.
	ServeDaemon = serve.Server
	// ServeRouter fronts a fleet of daemons: same admission path and
	// wire protocol as a daemon, with admitted requests placed onto a
	// consistent-hash ring and forwarded past ejected or saturated
	// members.
	ServeRouter = serve.Router
	// ServeConfig builds daemons and routers. A zero field means what
	// its comment says and never takes a default: a zero BatchMax or
	// BatchWindow disables batching, a zero ProbeInterval disables
	// probing, and a zero admission bound is rejected.
	ServeConfig = serve.Config
	// ServeNode is one fleet member: serve address plus optional
	// telemetry sidecar address for /healthz probing.
	ServeNode = serve.Node
	// ServeOption sets a client field for Dial and DialFleet.
	ServeOption = serve.Option
	// ServeBackend is the processing sink a ServeDaemon feeds, satisfied
	// by *WorkerPool (and by the router's internal fleet).
	ServeBackend = serve.Backend
	// ServeClient is the daemon's Go client: one connection, bounded
	// exponential-backoff retries over sheds and transport faults.
	ServeClient = serve.Client
	// ServeResult is one served baseline's output.
	ServeResult = serve.Result
	// ServeSlowRequest is one entry in a daemon's or router's
	// slowest-requests ring (ServeDaemon.Slowest, /debug/slowest); its
	// TraceID links into the Chrome trace export.
	ServeSlowRequest = serve.SlowRequest
)

// Serve-tier stage names recorded as trace spans: the client's root and
// per-attempt spans, and the transport's admission/receive/queue/batch/
// forward/respond spans (see TraceEvent.Stage).
const (
	StageClientRequest = serve.StageClientRequest
	StageClientAttempt = serve.StageClientAttempt
	StageServeRequest  = serve.StageServeRequest
	StageAdmission     = serve.StageAdmission
	StageReceive       = serve.StageReceive
	StageQueueWait     = serve.StageQueueWait
	StageBatch         = serve.StageBatch
	StageForward       = serve.StageForward
	StageRespond       = serve.StageRespond
)

// ErrServeShed is wrapped into a ServeClient error when every attempt was
// shed; errors.Is it to distinguish overload from hard failures.
var ErrServeShed = serve.ErrShed

// ErrServeRemote is wrapped into ServeClient errors the server reported
// as terminal (invalid request, pipeline failure): the transport worked,
// retrying the same request cannot succeed.
var ErrServeRemote = serve.ErrRemote

// DefaultServeConfig returns the daemon-shaped defaults.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// DefaultRouterConfig returns the router-shaped defaults (router_*
// metrics, no local batching).
func DefaultRouterConfig() ServeConfig { return serve.DefaultRouterConfig() }

// NewDaemonWith builds a daemon over the backend (normally a *WorkerPool)
// from cfg, used as given. Call Listen to bind and Shutdown to drain.
func NewDaemonWith(backend ServeBackend, cfg ServeConfig) (*ServeDaemon, error) {
	return serve.NewServerWith(backend, cfg)
}

// NewRouterWith builds a consistent-hash fleet router from cfg, used as
// given; cfg.Fleet names the members. Call Listen to bind and Shutdown to
// drain, exactly like a daemon.
func NewRouterWith(cfg ServeConfig) (*ServeRouter, error) {
	return serve.NewRouterWith(cfg)
}

// Dial connects a ServeClient to a daemon or router.
func Dial(addr string, opts ...ServeOption) (*ServeClient, error) {
	return serve.DialClient(addr, opts...)
}

// DialFleet connects a fleet-aware ServeClient: requests route to the
// member owning the client's ID on the consistent-hash ring (configure
// WithRing to match the fleet's routers), failing over along the ring
// when a member is unreachable.
func DialFleet(addrs []string, opts ...ServeOption) (*ServeClient, error) {
	return serve.DialFleet(addrs, opts...)
}

// WithServeTelemetry wires a client's metrics (client_*) and spans into
// reg.
func WithServeTelemetry(reg *TelemetryRegistry) ServeOption {
	return serve.WithTelemetry(reg)
}

// WithServeLogger routes a client's retry logs into l.
func WithServeLogger(l *slog.Logger) ServeOption { return serve.WithLogger(l) }

// WithServeClientID names the client for the daemon's quota accounting
// and per-client telemetry.
func WithServeClientID(id string) ServeOption { return serve.WithClientID(id) }

// WithServeRetryPolicy tunes client retries: attempts tries in total,
// backing off from base (doubling per attempt, floored by the daemon's
// retry-after hint) up to max. The backoff ladder is connection-scoped:
// it escalates across consecutive sheds and resets after any served
// request.
func WithServeRetryPolicy(attempts int, base, max time.Duration) ServeOption {
	return serve.WithRetryPolicy(attempts, base, max)
}

// WithServeClientDialBackoff tunes the client's reconnect loop.
func WithServeClientDialBackoff(attempts int, base time.Duration) ServeOption {
	return serve.WithClientDialBackoff(attempts, base)
}

// WithRing tunes a fleet-aware client's consistent-hash placement:
// vnodes virtual nodes per member and the placement seed. Every router
// and fleet-aware client in front of the same fleet must agree on both.
func WithRing(vnodes int, seed uint64) ServeOption { return serve.WithRing(vnodes, seed) }

// DefaultServeDedupeCap is a sane ServeConfig.DedupeCap for a daemon
// that enables content-addressed dedupe.
const DefaultServeDedupeCap = serve.DefaultDedupeCap
