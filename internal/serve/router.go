package serve

import "context"

// Router is the fleet front: the exact Server a daemon runs, constructed
// over a Fleet backend instead of a worker pool. Because the Fleet
// satisfies Backend, the router reuses every serving semantic —
// header-first admission, per-client quotas, byte budgets, graceful
// drain — from the one shared implementation; the only router-specific
// behavior is where admitted requests go: onto the consistent-hash ring,
// through the membership breaker, out to a daemon.
//
// Speak to it with the ordinary Client; responses are bit-identical to
// dialing the owning daemon directly.
type Router struct {
	*Server
	fleet *Fleet
}

// NewRouterWith builds a router from cfg, used as given: start from
// DefaultRouterConfig (router_* metrics, no local batching) and name the
// fleet membership in cfg.Fleet.
func NewRouterWith(cfg Config) (*Router, error) {
	fleet, err := newFleet(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := NewServerWith(fleet, cfg)
	if err != nil {
		fleet.Close()
		return nil, err
	}
	return &Router{Server: srv, fleet: fleet}, nil
}

// Fleet exposes the membership layer (status snapshots for operators and
// tests).
func (r *Router) Fleet() *Fleet { return r.fleet }

// Shutdown drains the transport like Server.Shutdown, then stops the
// prober and drops pooled fleet connections.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.Server.Shutdown(ctx)
	r.fleet.Close()
	return err
}

// Close shuts down immediately and stops the fleet.
func (r *Router) Close() {
	r.Server.Close()
	r.fleet.Close()
}
