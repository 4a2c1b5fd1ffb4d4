package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"spaceproc/internal/serve/ring"
	"spaceproc/internal/telemetry"
	"spaceproc/internal/wire"
)

// Fleet and probe defaults; override via Config or the corresponding
// Option.
const (
	// DefaultProbeInterval is the health-probe period for fleet members.
	DefaultProbeInterval = 250 * time.Millisecond
	// DefaultProbeFailures trips a node's circuit after this many
	// consecutive probe or forward failures.
	DefaultProbeFailures = 3
	// DefaultProbeBackoff is the first quarantine after a trip; it doubles
	// per re-trip up to DefaultProbeBackoffMax (the pool's breaker idiom).
	DefaultProbeBackoff    = 250 * time.Millisecond
	DefaultProbeBackoffMax = 5 * time.Second
)

// Node is one fleet member: the serve address requests forward to, and
// optionally the telemetry sidecar address whose /healthz and /metrics
// drive liveness and queue-depth spillover. An empty Health falls back
// to TCP dial probes of Addr.
type Node struct {
	Addr   string
	Health string
}

// Config is the single construction surface for everything in this
// package: the daemon (admission fields), the client (retry/dial
// fields), and the fleet router (fleet fields). Zero fields are filled
// with defaults by the Config-taking constructors (NewServerWith,
// NewRouterWith, DialWith); the Option-taking constructors start from
// DefaultConfig and validate strictly, so an explicit zero from an
// option is an error, not silently patched.
type Config struct {
	// Admission (daemon and router).
	MaxInflight     int           // admitted requests across all clients
	PerClientQuota  int           // admitted requests per client ID; 0 = global limit only
	RetryAfter      time.Duration // hint carried by shed responses
	MaxRequestBytes int64         // payload bytes one header may declare
	ReceiveTimeout  time.Duration // bound on one header or frame once it starts arriving
	BatchMax        int           // batch flush size; <= 1 disables batching
	BatchWindow     time.Duration // batch flush age; <= 0 disables batching

	// Durability (daemon): write-ahead request log and content-addressed
	// dedupe. Both default off — tests and embedded uses get the
	// historical stateless daemon unless they opt in.
	WALDir        string // directory for the ingest WAL; "" disables logging
	WALSync       bool   // fsync each append and commit (crash-durable, slower)
	WALChunkBytes int    // WAL payload chunk cap; 0 = store.DefaultWALChunkBytes
	DedupeCap     int    // dedupe cache entries; <= 0 disables dedupe

	// Client retry/dial policy (also the fleet's forwarding clients).
	ClientID        string
	Attempts        int           // tries per Process call
	RetryBackoff    time.Duration // first retry delay, doubling per attempt
	RetryBackoffMax time.Duration
	DialAttempts    int           // dial passes per connect; <= 0 dials once
	DialBackoff     time.Duration // pause between passes, doubling; <= 0 = wire.DefaultDialBackoff

	// Fleet topology and membership policy (router and fleet-aware
	// clients).
	Fleet           []Node
	VirtualNodes    int    // ring points per member; 0 = ring.DefaultVirtualNodes
	RingSeed        uint64 // placement seed; same seed + members = same routing
	ProbeInterval   time.Duration
	ProbeFailures   int           // consecutive failures that eject a node
	ProbeBackoff    time.Duration // first quarantine, doubling per re-trip
	ProbeBackoffMax time.Duration
	SpillDepth      int // node queue depth that triggers spillover; 0 disables

	// Plumbing.
	MetricPrefix string // metric name prefix: "serve" for daemons, "router" for routers
	Telemetry    *telemetry.Registry
	Logger       *slog.Logger
}

// DefaultConfig returns the daemon-shaped defaults.
func DefaultConfig() Config {
	return Config{
		MaxInflight:     DefaultMaxInflight,
		RetryAfter:      DefaultRetryAfter,
		MaxRequestBytes: DefaultMaxRequestBytes,
		ReceiveTimeout:  DefaultReceiveTimeout,
		BatchMax:        DefaultBatchMax,
		BatchWindow:     DefaultBatchWindow,
		Attempts:        DefaultAttempts,
		RetryBackoff:    DefaultRetryBackoff,
		RetryBackoffMax: DefaultRetryBackoffMax,
		DialAttempts:    wire.DefaultDialAttempts,
		DialBackoff:     wire.DefaultDialBackoff,
		VirtualNodes:    ring.DefaultVirtualNodes,
		ProbeInterval:   DefaultProbeInterval,
		ProbeFailures:   DefaultProbeFailures,
		ProbeBackoff:    DefaultProbeBackoff,
		ProbeBackoffMax: DefaultProbeBackoffMax,
		MetricPrefix:    "serve",
	}
}

// DefaultRouterConfig returns router-shaped defaults: router_* metrics
// and no local batching (requests forward one at a time; the daemons
// behind the ring do the batching).
func DefaultRouterConfig() Config {
	cfg := DefaultConfig()
	cfg.MetricPrefix = "router"
	cfg.BatchMax = 1
	return cfg
}

// withDefaults fills zero fields with their defaults. Negative values
// are left for validate to reject (except where a negative is the
// documented "disabled" sentinel: ProbeInterval, BatchWindow).
func (c *Config) withDefaults() {
	d := DefaultConfig()
	if c.MaxInflight == 0 {
		c.MaxInflight = d.MaxInflight
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = d.MaxRequestBytes
	}
	if c.ReceiveTimeout == 0 {
		c.ReceiveTimeout = d.ReceiveTimeout
	}
	if c.BatchMax == 0 {
		c.BatchMax = d.BatchMax
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = d.BatchWindow
	}
	if c.Attempts == 0 {
		c.Attempts = d.Attempts
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = d.RetryBackoffMax
	}
	if c.DialAttempts == 0 {
		c.DialAttempts = d.DialAttempts
	}
	if c.DialBackoff == 0 {
		c.DialBackoff = d.DialBackoff
	}
	if c.VirtualNodes == 0 {
		c.VirtualNodes = d.VirtualNodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.ProbeFailures == 0 {
		c.ProbeFailures = d.ProbeFailures
	}
	if c.ProbeBackoff == 0 {
		c.ProbeBackoff = d.ProbeBackoff
	}
	if c.ProbeBackoffMax == 0 {
		c.ProbeBackoffMax = d.ProbeBackoffMax
	}
	if c.MetricPrefix == "" {
		c.MetricPrefix = d.MetricPrefix
	}
}

// validate rejects admission configurations a Core cannot run with.
// Client and fleet fields are checked by their consumers (clients clamp,
// the fleet validates membership), matching the historical split between
// erroring servers and forgiving clients.
func (c Config) validate() error {
	if c.MaxInflight <= 0 {
		return fmt.Errorf("serve: max inflight %d must be positive", c.MaxInflight)
	}
	if c.PerClientQuota < 0 {
		return fmt.Errorf("serve: per-client quota %d must be non-negative", c.PerClientQuota)
	}
	if c.RetryAfter <= 0 {
		return fmt.Errorf("serve: retry-after hint %v must be positive", c.RetryAfter)
	}
	if c.MaxRequestBytes <= 0 {
		return fmt.Errorf("serve: request byte budget %d must be positive", c.MaxRequestBytes)
	}
	if c.ReceiveTimeout <= 0 {
		return fmt.Errorf("serve: receive timeout %v must be positive", c.ReceiveTimeout)
	}
	if c.MetricPrefix == "" {
		return errors.New("serve: metric prefix must be non-empty")
	}
	return nil
}

// clampClient normalizes the client-side fields the way DialClient
// always has: invalid values snap to sane ones instead of erroring, so a
// half-configured client still makes progress.
func (c *Config) clampClient() {
	if c.Attempts <= 0 {
		c.Attempts = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.RetryBackoffMax < c.RetryBackoff {
		c.RetryBackoffMax = c.RetryBackoff
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = DefaultProbeFailures
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = DefaultProbeBackoff
	}
	if c.ProbeBackoffMax < c.ProbeBackoff {
		c.ProbeBackoffMax = c.ProbeBackoff
	}
}

// Option configures a Config before validation. One option type serves
// daemon, client, and router construction — the redesigned facade's
// single coherent surface.
type Option func(*Config)

// WithMaxInflight bounds admitted requests across all clients; further
// requests are shed with a retry-after hint.
func WithMaxInflight(n int) Option {
	return func(c *Config) { c.MaxInflight = n }
}

// WithPerClientQuota bounds admitted requests per client ID (0 defaults
// to the global limit).
func WithPerClientQuota(n int) Option {
	return func(c *Config) { c.PerClientQuota = n }
}

// WithRetryAfterHint sets the shed hint handed to rejected clients.
func WithRetryAfterHint(d time.Duration) Option {
	return func(c *Config) { c.RetryAfter = d }
}

// WithMaxRequestBytes bounds the payload one request may declare in its
// header (Frames x Width x Height pixels at 2 bytes each); larger
// requests are refused with StatusError before any payload is accepted.
func WithMaxRequestBytes(n int64) Option {
	return func(c *Config) { c.MaxRequestBytes = n }
}

// WithReceiveTimeout bounds how long one header or payload frame may take
// to arrive once it has started; a client that stalls mid-stream is
// disconnected and its admission slot released.
func WithReceiveTimeout(d time.Duration) Option {
	return func(c *Config) { c.ReceiveTimeout = d }
}

// WithBatching tunes the dynamic batcher: a batch flushes at max members
// or when its oldest member has waited window. max <= 1 or window <= 0
// disables batching.
func WithBatching(max int, window time.Duration) Option {
	return func(c *Config) {
		// An explicit zero means "disabled", not "default"; pin it below
		// zero so withDefaults cannot re-fill it.
		if max <= 0 {
			max = -1
		}
		if window <= 0 {
			window = -1
		}
		c.BatchMax = max
		c.BatchWindow = window
	}
}

// WithTelemetry wires the construct's instrumentation into reg. Daemons
// mint serve_*-prefixed series, routers router_*, clients client_*; see
// each constructor for the exact set.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.Telemetry = reg }
}

// WithLogger routes structured forensics — INFO on lifecycle milestones,
// WARN on sheds, retries, ejections, and failed requests — into l.
func WithLogger(l *slog.Logger) Option {
	return func(c *Config) { c.Logger = l }
}

// WithMetricPrefix overrides the metric name prefix ("serve" for
// daemons, "router" for routers).
func WithMetricPrefix(p string) Option {
	return func(c *Config) { c.MetricPrefix = p }
}

// WithClientID names the client for the server's quota accounting and
// per-client telemetry; empty defaults to the connection's source host.
func WithClientID(id string) Option {
	return func(c *Config) { c.ClientID = id }
}

// WithRetryPolicy tunes Process retries: attempts tries in total, backing
// off from base (doubling per attempt, floored by the server's retry-after
// hint) up to max.
func WithRetryPolicy(attempts int, base, max time.Duration) Option {
	return func(c *Config) {
		c.Attempts = attempts
		c.RetryBackoff = base
		c.RetryBackoffMax = max
	}
}

// WithClientDialBackoff tunes the reconnect loop: attempts dials per
// connect, sleeping base (doubling each attempt) between them.
func WithClientDialBackoff(attempts int, base time.Duration) Option {
	return func(c *Config) {
		c.DialAttempts = attempts
		c.DialBackoff = base
	}
}

// WithFleet sets the fleet membership for routers and fleet-aware
// clients.
func WithFleet(nodes ...Node) Option {
	return func(c *Config) { c.Fleet = append([]Node(nil), nodes...) }
}

// WithFleetAddrs is WithFleet for bare serve addresses (TCP dial
// probing, no telemetry sidecar).
func WithFleetAddrs(addrs ...string) Option {
	return func(c *Config) {
		c.Fleet = make([]Node, len(addrs))
		for i, a := range addrs {
			c.Fleet[i] = Node{Addr: a}
		}
	}
}

// WithRing tunes consistent-hash placement: vnodes virtual nodes per
// member (<= 0 selects ring.DefaultVirtualNodes) and the placement seed.
// Every router and fleet-aware client in front of the same fleet must
// agree on both for routing to be stable across processes.
func WithRing(vnodes int, seed uint64) Option {
	return func(c *Config) {
		c.VirtualNodes = vnodes
		c.RingSeed = seed
	}
}

// WithHealthProbe tunes membership probing: every interval each node is
// probed (/healthz when it has a Health address, TCP dial otherwise) and
// failures consecutive misses eject it into exponential-backoff
// quarantine with half-open readmission. interval <= 0 disables the
// background prober; forwarding failures still trip the breaker.
func WithHealthProbe(interval time.Duration, failures int) Option {
	return func(c *Config) {
		if interval <= 0 {
			interval = -1
		}
		c.ProbeInterval = interval
		if failures > 0 {
			c.ProbeFailures = failures
		}
	}
}

// WithSpillover re-routes requests away from a node whose queue depth
// (its live forwarding count, or the serve_requests_inflight gauge its
// probes report) has reached depth, onto the next ring successor. depth
// <= 0 disables spillover.
func WithSpillover(depth int) Option {
	return func(c *Config) { c.SpillDepth = depth }
}

// WithWAL enables the write-ahead request log in dir: every admitted
// baseline is appended (size-capped, hash-verified chunks) before it
// enters the batcher, committed when its exchange completes, and
// replayed through ReplayWAL after a restart. sync fsyncs each append
// and commit — crash-durable but slower; without it the log rides the
// page cache and only survives process death, not power loss.
func WithWAL(dir string, sync bool) Option {
	return func(c *Config) {
		c.WALDir = dir
		c.WALSync = sync
	}
}

// WithWALChunkBytes caps the WAL's payload chunk size (0 selects
// store.DefaultWALChunkBytes).
func WithWALChunkBytes(n int) Option {
	return func(c *Config) { c.WALChunkBytes = n }
}

// WithDedupe enables content-addressed dedupe: a request whose baseline
// hashes to a previously served one is answered from a bounded cache of
// cap results without touching the pipeline (the pipeline is
// deterministic, so the cached answer is bit-identical). cap <= 0
// disables; DefaultDedupeCap is a sane bound.
func WithDedupe(cap int) Option {
	return func(c *Config) { c.DedupeCap = cap }
}
