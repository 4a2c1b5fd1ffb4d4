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

// Fleet and probe defaults, as DefaultConfig sets them.
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
// optionally the telemetry sidecar address whose /healthz drives
// liveness and whose /metrics page the prober keeps for queue-depth
// spillover and the fleet view. An empty Health falls back to TCP dial
// probes of Addr.
type Node struct {
	Addr   string
	Health string
}

// Config builds the daemon (admission and durability fields) and the
// fleet router (admission and fleet fields) through NewServerWith and
// NewRouterWith, and holds the client fields that Options set for
// DialClient and DialFleet. It is used as given: a zero field means what
// its comment says, not "default", so start from DefaultConfig or
// DefaultRouterConfig and change what differs. Zero MaxInflight,
// RetryAfter, MaxRequestBytes, ReceiveTimeout and MetricPrefix are
// rejected.
type Config struct {
	// Admission (daemon and router).
	MaxInflight     int           // admitted requests across all clients; must be positive
	PerClientQuota  int           // admitted requests per client ID; 0 = global limit only
	RetryAfter      time.Duration // hint carried by shed responses; must be positive
	MaxRequestBytes int64         // payload bytes one header may declare; must be positive
	ReceiveTimeout  time.Duration // bound on one header or frame once it starts arriving; must be positive
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
	Attempts        int           // tries per Process call; <= 0 tries once
	RetryBackoff    time.Duration // first retry delay, doubling per attempt; <= 0 = DefaultRetryBackoff
	RetryBackoffMax time.Duration
	DialAttempts    int           // dial passes per connect; <= 0 dials once
	DialBackoff     time.Duration // pause between passes, doubling; <= 0 = wire.DefaultDialBackoff

	// Fleet topology and membership policy (router; VirtualNodes and
	// RingSeed also place a fleet-aware client's requests).
	Fleet           []Node
	VirtualNodes    int           // ring points per member; 0 = ring.DefaultVirtualNodes
	RingSeed        uint64        // placement seed; same seed + members = same routing
	ProbeInterval   time.Duration // health-probe period; <= 0 starts no prober
	ProbeFailures   int           // consecutive failures that eject a node; <= 0 = DefaultProbeFailures
	ProbeBackoff    time.Duration // first quarantine, doubling per re-trip; <= 0 = DefaultProbeBackoff
	ProbeBackoffMax time.Duration
	SpillDepth      int // node queue depth that triggers spillover; 0 disables

	// Plumbing.
	MetricPrefix string // metric name prefix ("serve" for daemons, "router" for routers); must be non-empty
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

// validate rejects admission configurations a Server cannot run with.
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

// clampClient normalizes the client-side fields, which the fleet's
// forwarders share: invalid values snap to sane ones instead of erroring,
// so a half-configured client still makes progress.
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

// Option sets client fields of a Config: DialClient and DialFleet apply
// their options over DefaultConfig. Daemons and routers are built from a
// Config (NewServerWith, NewRouterWith), not from options.
type Option func(*Config)

// WithTelemetry wires the client's instrumentation (client_* series and
// client spans) into reg.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.Telemetry = reg }
}

// WithLogger routes the client's retry forensics (WARN per retried
// request) into l.
func WithLogger(l *slog.Logger) Option {
	return func(c *Config) { c.Logger = l }
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

// WithRing tunes a fleet-aware client's consistent-hash placement:
// vnodes virtual nodes per member (<= 0 selects ring.DefaultVirtualNodes)
// and the placement seed. Every router and fleet-aware client in front of
// the same fleet must agree on both for routing to be stable across
// processes.
func WithRing(vnodes int, seed uint64) Option {
	return func(c *Config) {
		c.VirtualNodes = vnodes
		c.RingSeed = seed
	}
}
