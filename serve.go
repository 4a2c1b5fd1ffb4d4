package spaceproc

import (
	"log/slog"
	"time"

	"spaceproc/internal/serve"
)

// Preprocessing as a service (internal/serve): a daemon that runs client
// baselines through a shared WorkerPool, with admission control, dynamic
// batching, and graceful drain; a consistent-hash router that fronts a
// fleet of those daemons with the identical admission core; and the
// retrying Go client, optionally fleet-aware.
//
// Everything constructs from one surface: a ServeConfig (NewDaemonWith,
// NewRouterWith) or the shared ServeOption set (NewDaemon, NewRouter,
// Dial, DialFleet) — the same option works on whichever construct it is
// meaningful for.
type (
	// ServeDaemon accepts baselines over TCP and answers with the
	// repaired stack, its downlink payload, and the pipeline forensics.
	ServeDaemon = serve.Server
	// ServeRouter fronts a fleet of daemons: same admission core and
	// wire protocol as a daemon, with admitted requests placed onto a
	// consistent-hash ring and forwarded past ejected or saturated
	// members.
	ServeRouter = serve.Router
	// ServeConfig is the single validated construction surface for
	// daemons, routers, and clients; zero fields take defaults in the
	// *With constructors.
	ServeConfig = serve.Config
	// ServeNode is one fleet member: serve address plus optional
	// telemetry sidecar address for /healthz probing.
	ServeNode = serve.Node
	// ServeOption configures a ServeConfig before validation — one
	// option type across daemon, router, and client construction.
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

// NewDaemon builds a daemon over the backend (normally a *WorkerPool).
// Call Listen to bind and Shutdown to drain.
func NewDaemon(backend ServeBackend, opts ...ServeOption) (*ServeDaemon, error) {
	return serve.NewServer(backend, opts...)
}

// NewDaemonWith builds a daemon from cfg; zero fields take defaults.
func NewDaemonWith(backend ServeBackend, cfg ServeConfig) (*ServeDaemon, error) {
	return serve.NewServerWith(backend, cfg)
}

// NewRouter builds a consistent-hash fleet router; the membership
// (WithFleet / WithFleetNodes) is required. Call Listen to bind and
// Shutdown to drain, exactly like a daemon.
func NewRouter(opts ...ServeOption) (*ServeRouter, error) {
	return serve.NewRouter(opts...)
}

// NewRouterWith builds a router from cfg; zero fields take router
// defaults.
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

// WithServeMaxInflight bounds concurrently admitted requests; beyond it
// requests are shed with a retry-after hint instead of queued.
func WithServeMaxInflight(n int) ServeOption { return serve.WithMaxInflight(n) }

// WithServePerClientQuota bounds concurrently admitted requests per client
// ID (0 means the global limit is the only bound).
func WithServePerClientQuota(n int) ServeOption { return serve.WithPerClientQuota(n) }

// WithServeRetryAfterHint sets the hint shed responses carry.
func WithServeRetryAfterHint(d time.Duration) ServeOption {
	return serve.WithRetryAfterHint(d)
}

// WithServeMaxRequestBytes bounds the payload one request may declare in
// its header; larger requests are refused before any payload is accepted.
func WithServeMaxRequestBytes(n int64) ServeOption {
	return serve.WithMaxRequestBytes(n)
}

// WithServeReceiveTimeout bounds how long one header or payload frame may
// take to arrive once it has started, so a stalled client releases its
// admission slot.
func WithServeReceiveTimeout(d time.Duration) ServeOption {
	return serve.WithReceiveTimeout(d)
}

// WithServeBatching coalesces admitted requests into pool submission
// waves: a batch flushes at max members or when its oldest member has
// waited window.
func WithServeBatching(max int, window time.Duration) ServeOption {
	return serve.WithBatching(max, window)
}

// WithServeTelemetry wires the construct's metrics into reg: serve_* on
// daemons, router_* on routers, client_* on clients.
func WithServeTelemetry(reg *TelemetryRegistry) ServeOption {
	return serve.WithTelemetry(reg)
}

// WithServeLogger routes the construct's structured logs into l.
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

// WithFleet sets the fleet membership for routers and fleet-aware
// clients: each node's serve address plus an optional telemetry sidecar
// address that /healthz probing and queue-depth spillover read.
func WithFleet(nodes ...ServeNode) ServeOption { return serve.WithFleet(nodes...) }

// WithFleetAddrs is WithFleet for bare serve addresses (TCP dial
// probing, no sidecar).
func WithFleetAddrs(addrs ...string) ServeOption { return serve.WithFleetAddrs(addrs...) }

// WithRing tunes consistent-hash placement: vnodes virtual nodes per
// member and the placement seed. Every router and fleet-aware client in
// front of the same fleet must agree on both.
func WithRing(vnodes int, seed uint64) ServeOption { return serve.WithRing(vnodes, seed) }

// WithHealthProbe tunes fleet membership probing: every interval each
// node is probed and failures consecutive misses eject it into
// exponential-backoff quarantine with half-open readmission. interval
// <= 0 disables the background prober (forwarding failures still trip
// the breaker).
func WithHealthProbe(interval time.Duration, failures int) ServeOption {
	return serve.WithHealthProbe(interval, failures)
}

// WithSpillover re-routes requests away from a fleet member whose queue
// depth has reached depth, onto the next ring successor; depth <= 0
// disables spillover.
func WithSpillover(depth int) ServeOption { return serve.WithSpillover(depth) }

// DefaultServeDedupeCap is the dedupe cache bound WithServeDedupe users
// get when they don't pick one.
const DefaultServeDedupeCap = serve.DefaultDedupeCap

// WithServeWAL gives the daemon a write-ahead request log in dir: every
// admitted baseline is durably appended (size-capped, hash-verified
// chunks) before it enters the batcher and committed when its exchange
// resolves, so ServeDaemon.ReplayWAL after a crash re-runs exactly the
// admitted-but-unserved requests. sync fsyncs each append and commit.
func WithServeWAL(dir string, sync bool) ServeOption { return serve.WithWAL(dir, sync) }

// WithServeDedupe enables content-addressed dedupe on the daemon: a
// baseline hashing identically to a previously served one is answered
// from a bounded cache of cap results without re-running the pipeline
// (which is deterministic, so the cached answer is bit-identical).
func WithServeDedupe(cap int) ServeOption { return serve.WithDedupe(cap) }
