package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"spaceproc/internal/breaker"
	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/serve/ring"
	"spaceproc/internal/telemetry"
)

// fleetDialTimeout bounds one forwarding dial so a freshly dead node
// costs a connect timeout, not a request deadline.
const fleetDialTimeout = time.Second

// NodeState is a fleet member's circuit-breaker state, the worker pool's
// breaker: Healthy until ProbeFailures consecutive probe or forward
// failures, then Quarantined for an exponentially growing backoff, then
// Probing (half-open) where a single success readmits and a single
// failure re-quarantines with a doubled backoff.
type NodeState = breaker.State

const (
	NodeHealthy     = breaker.Healthy
	NodeQuarantined = breaker.Quarantined
	NodeProbing     = breaker.Probing
)

// NodeStatus is one member's membership snapshot (see Fleet.Status).
// The member is up exactly when State is NodeHealthy.
type NodeStatus struct {
	Addr  string
	State NodeState
	Depth int    // max of live forwards and the stored page's inflight gauge
	Err   string // the last probe or forward failure
	// Page is the member's /metrics page as the last probe round kept
	// it, taken at Scraped; nil when that round got no 200 page (and
	// always for a member probed by TCP dial).
	Page    *telemetry.Snapshot
	Scraped time.Time
}

// fleetMetrics holds the fleet's registry handles under the configured
// prefix ("router" behind a Router).
type fleetMetrics struct {
	routed      *telemetry.Counter // requests forwarded successfully
	rerouted    *telemetry.Counter // served by a node other than the ring owner
	spillover   *telemetry.Counter // owner demoted for queue depth
	ejected     *telemetry.Counter // circuit trips
	readmitted  *telemetry.Counter // circuit closes
	probeFailed *telemetry.Counter
	nodes       *telemetry.Gauge
	nodesUp     *telemetry.Gauge
}

// fleetNode is one member: its breaker, its last /metrics page and the
// queue depth read off it, and a pool of idle forwarding clients.
type fleetNode struct {
	node     Node
	id       string // metric-safe address
	healthyG *telemetry.Gauge
	depthG   *telemetry.Gauge

	mu          sync.Mutex
	br          breaker.Breaker
	cause       string              // the last probe or forward failure
	page        *telemetry.Snapshot // the last probe round's page; never written once stored
	scraped     time.Time           // when page was taken
	probedDepth int                 // serve_requests_inflight off page
	outstanding int                 // live forwards from this fleet
	idle        []*Client           // parked forwarding connections
}

// Fleet is a consistent-hash routing backend over spaceprocd members: it
// implements Backend, so a Server constructed over it IS the router —
// admission, quotas, and drain are the daemon's own, and only the Submit
// sink differs. Requests place onto the ring by their Route key, fail
// over along the ring past ejected members, and spill past members whose
// queue depth runs hot.
type Fleet struct {
	cfg   Config
	ring  *ring.Ring
	log   *slog.Logger
	met   *fleetMetrics // nil without telemetry
	nodes map[string]*fleetNode

	done   chan struct{}
	wg     sync.WaitGroup
	closeO sync.Once
}

// newFleet builds the routing backend from cfg's fleet fields; cfg must
// name at least one node. A positive ProbeInterval starts the background
// membership prober (stopped by Close).
func newFleet(cfg Config) (*Fleet, error) {
	cfg.clampClient()
	if len(cfg.Fleet) == 0 {
		return nil, errors.New("serve: fleet needs at least one node")
	}
	f := &Fleet{
		cfg:   cfg,
		ring:  ring.New(cfg.VirtualNodes, cfg.RingSeed),
		log:   cfg.Logger,
		nodes: make(map[string]*fleetNode, len(cfg.Fleet)),
		done:  make(chan struct{}),
	}
	p := cfg.MetricPrefix
	if cfg.Telemetry != nil {
		f.met = &fleetMetrics{
			routed:      cfg.Telemetry.Counter(p + "_routed_total"),
			rerouted:    cfg.Telemetry.Counter(p + "_rerouted_total"),
			spillover:   cfg.Telemetry.Counter(p + "_spillover_total"),
			ejected:     cfg.Telemetry.Counter(p + "_ejected_total"),
			readmitted:  cfg.Telemetry.Counter(p + "_readmitted_total"),
			probeFailed: cfg.Telemetry.Counter(p + "_probe_failures_total"),
			nodes:       cfg.Telemetry.Gauge(p + "_nodes"),
			nodesUp:     cfg.Telemetry.Gauge(p + "_nodes_healthy"),
		}
	}
	for _, n := range cfg.Fleet {
		if n.Addr == "" {
			return nil, errors.New("serve: fleet node with empty address")
		}
		if _, dup := f.nodes[n.Addr]; dup {
			return nil, fmt.Errorf("serve: duplicate fleet node %s", n.Addr)
		}
		fn := &fleetNode{node: n, id: metricName(n.Addr, 48)}
		if cfg.Telemetry != nil {
			fn.healthyG = cfg.Telemetry.Gauge(p + "_node_" + fn.id + "_healthy")
			fn.depthG = cfg.Telemetry.Gauge(p + "_node_" + fn.id + "_depth")
			fn.healthyG.Set(1)
		}
		f.nodes[n.Addr] = fn
		f.ring.Add(n.Addr)
	}
	if f.met != nil {
		f.met.nodes.Set(float64(len(f.nodes)))
		f.met.nodesUp.Set(float64(len(f.nodes)))
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Submit implements Backend: the request routes onto the ring on a
// background goroutine and the channel delivers the result exactly once.
func (f *Fleet) Submit(ctx context.Context, s *dataset.Stack) <-chan *cluster.Result {
	ch := make(chan *cluster.Result, 1)
	go func() { ch <- f.route(ctx, s) }()
	return ch
}

// route forwards one request: candidates in ring order from the key's
// owner, unavailable members skipped, hot members demoted, transport
// faults tripping the member's breaker and moving on.
func (f *Fleet) route(ctx context.Context, s *dataset.Stack) *cluster.Result {
	rt, _ := RouteFrom(ctx)
	key := rt.Key
	if key == "" {
		key = rt.Client
	}
	if key == "" {
		key = "anon"
	}
	seq := f.ring.Sequence(key)
	owner := seq[0]

	// Partition by availability; quarantined members past their reopen
	// time transition to Probing here (the half-open trial is a live
	// request or a probe, whichever comes first).
	avail := make([]string, 0, len(seq))
	for _, addr := range seq {
		if f.nodes[addr].admittable() {
			avail = append(avail, addr)
		}
	}
	if len(avail) == 0 {
		// Every member ejected: forward anyway in ring order rather than
		// fail closed — a universally black-holed fleet answers with
		// dial errors soon enough, and a recovered one heals fastest by
		// being tried.
		avail = seq
	}

	// Spillover: members at or past the depth threshold sink behind the
	// cool ones (stable order otherwise).
	spilled := false
	if d := f.cfg.SpillDepth; d > 0 {
		cool := make([]string, 0, len(avail))
		var hot []string
		for _, addr := range avail {
			if f.nodes[addr].depth() >= d {
				hot = append(hot, addr)
			} else {
				cool = append(cool, addr)
			}
		}
		if len(cool) > 0 && len(hot) > 0 && hot[0] == avail[0] {
			spilled = true
		}
		avail = append(cool, hot...)
	}

	var errs []error
	sawShed := false
	for _, addr := range avail {
		n := f.nodes[addr]
		// Each hop gets its own forward span: a request that bounced off
		// two saturated members before landing on a third shows all three
		// attempts in its trace. The span's position rides the forwarding
		// context, so the downstream daemon parents under this hop.
		fctx := ctx
		var span *telemetry.TraceSpan
		if tc, ok := telemetry.TraceFromContext(ctx); ok {
			if tr := telemetry.TracerFromContext(ctx); tr != nil {
				span = tr.StartSpan(tc, StageForward, addr)
				fctx = telemetry.ContextWithTrace(ctx, tr, span.Context())
			}
		}
		res, err := f.forward(fctx, n, rt.Client, key, s)
		if span != nil {
			switch {
			case err == nil:
				span.Annotate("outcome", "ok")
			case errors.Is(err, ErrShed):
				span.Annotate("outcome", "shed")
			case errors.Is(err, ErrRemote):
				span.Annotate("outcome", "remote_error")
			default:
				span.Annotate("outcome", "transport_error")
				span.Annotate("error", err.Error())
			}
			span.End()
		}
		switch {
		case err == nil:
			f.noteSuccess(n)
			if f.met != nil {
				f.met.routed.Inc()
				if addr != owner {
					f.met.rerouted.Inc()
				}
				if spilled && addr != owner {
					f.met.spillover.Inc()
				}
			}
			return res
		case ctx.Err() != nil:
			return &cluster.Result{Err: ctx.Err()}
		case errors.Is(err, ErrRemote):
			// The node is alive and answered; the request itself is
			// broken. Terminal — no other node will disagree.
			f.noteSuccess(n)
			return &cluster.Result{Err: err}
		case errors.Is(err, ErrShed):
			// Alive but saturated: clears the breaker, try the successor.
			f.noteSuccess(n)
			sawShed = true
			errs = append(errs, fmt.Errorf("%s: %w", addr, err))
		default:
			// Transport fault: trip toward ejection and try the successor.
			f.noteFailure(n, err)
			errs = append(errs, fmt.Errorf("%s: %w", addr, err))
		}
	}
	if sawShed {
		// At least one member admitted-and-shed or refused for load; the
		// request is retryable, and the transport above relays it as
		// StatusShed so clients back off instead of failing.
		return &cluster.Result{Err: fmt.Errorf("%w: fleet saturated: %w", ErrShed, errors.Join(errs...))}
	}
	return &cluster.Result{Err: fmt.Errorf("serve: no fleet member reachable: %w", errors.Join(errs...))}
}

// forward runs one request against one member over a pooled client.
func (f *Fleet) forward(ctx context.Context, n *fleetNode, clientID, key string, s *dataset.Stack) (*cluster.Result, error) {
	cl := n.popClient(f.cfg)
	n.mu.Lock()
	n.outstanding++
	depth := n.liveDepth()
	n.mu.Unlock()
	if n.depthG != nil {
		n.depthG.Set(float64(depth))
	}
	defer func() {
		n.mu.Lock()
		n.outstanding--
		depth := n.liveDepth()
		n.mu.Unlock()
		if n.depthG != nil {
			n.depthG.Set(float64(depth))
		}
	}()

	// Bound the dial separately from the exchange: a dead node should
	// cost a connect timeout, not the request's whole deadline.
	dialCtx, cancel := context.WithTimeout(ctx, fleetDialTimeout)
	err := cl.ensureConnected(dialCtx)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, err
	}
	res, err := cl.process(ctx, clientID, key, s)
	// Shed and remote verdicts arrive over a healthy exchange, so the
	// connection is still in sync and worth pooling; after any other
	// error the stream state is unknown.
	if err == nil || errors.Is(err, ErrShed) || errors.Is(err, ErrRemote) {
		n.pushClient(cl)
	} else {
		cl.Close()
	}
	return res, err
}

// popClient takes an idle forwarding client or builds a lean one: a
// single attempt and a single dial, because failover policy belongs to
// the fleet, not to the per-node client.
func (n *fleetNode) popClient(cfg Config) *Client {
	n.mu.Lock()
	if l := len(n.idle); l > 0 {
		cl := n.idle[l-1]
		n.idle = n.idle[:l-1]
		n.mu.Unlock()
		return cl
	}
	n.mu.Unlock()
	lean := DefaultConfig()
	lean.Attempts = 1
	lean.DialAttempts = 1
	lean.DialBackoff = cfg.DialBackoff
	return newClient(lean, []string{n.node.Addr})
}

// dropIdle closes the member's parked forwarding connections.
func (n *fleetNode) dropIdle() {
	n.mu.Lock()
	idle := n.idle
	n.idle = nil
	n.mu.Unlock()
	for _, cl := range idle {
		cl.Close()
	}
}

func (n *fleetNode) pushClient(cl *Client) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.idle) < 8 {
		n.idle = append(n.idle, cl)
		return
	}
	go cl.Close()
}

// admittable reports whether the member may take a request or probe (see
// breaker.Breaker.Admit).
func (n *fleetNode) admittable() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.br.Admit()
}

// liveDepth is the depth estimate under n.mu.
func (n *fleetNode) liveDepth() int {
	if n.outstanding > n.probedDepth {
		return n.outstanding
	}
	return n.probedDepth
}

// depth is the public depth estimate.
func (n *fleetNode) depth() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.liveDepth()
}

// noteSuccess clears the member's breaker, readmitting it if it was
// ejected.
func (f *Fleet) noteSuccess(n *fleetNode) {
	n.mu.Lock()
	readmitted := n.br.Succeed()
	n.mu.Unlock()
	if !readmitted {
		return
	}
	if n.healthyG != nil {
		n.healthyG.Set(1)
	}
	if f.met != nil {
		f.met.readmitted.Inc()
		f.met.nodesUp.Set(float64(f.healthyCount()))
	}
	if f.log != nil {
		f.log.LogAttrs(context.Background(), slog.LevelInfo, "fleet node readmitted",
			slog.String("node", n.node.Addr))
	}
}

// noteFailure records one probe or forward failure, tripping the breaker
// after ProbeFailures consecutive misses (immediately when the failure
// was the half-open trial) into an exponentially longer quarantine.
func (f *Fleet) noteFailure(n *fleetNode, cause error) {
	n.mu.Lock()
	n.cause = cause.Error()
	wasHealthy := n.br.State == NodeHealthy
	trip := n.br.Fail(f.cfg.ProbeFailures, f.cfg.ProbeBackoff, f.cfg.ProbeBackoffMax)
	backoff := n.br.Backoff
	n.mu.Unlock()
	if !trip {
		return
	}
	// The member's parked connections die with it: reused after a
	// restart, each would fail once and eject the member again.
	n.dropIdle()
	if !wasHealthy {
		// A re-trip of an already ejected member (the half-open trial
		// failed): the eject was counted when it left Healthy.
		if f.log != nil {
			f.log.LogAttrs(context.Background(), slog.LevelWarn, "fleet node re-quarantined",
				slog.String("node", n.node.Addr),
				slog.Duration("backoff", backoff),
				slog.Any("cause", cause))
		}
		return
	}
	if n.healthyG != nil {
		n.healthyG.Set(0)
	}
	if f.met != nil {
		f.met.ejected.Inc()
		f.met.nodesUp.Set(float64(f.healthyCount()))
	}
	if f.log != nil {
		f.log.LogAttrs(context.Background(), slog.LevelWarn, "fleet node ejected",
			slog.String("node", n.node.Addr),
			slog.Duration("backoff", backoff),
			slog.Any("cause", cause))
	}
}

func (f *Fleet) healthyCount() int {
	c := 0
	for _, n := range f.nodes {
		n.mu.Lock()
		if n.br.State == NodeHealthy {
			c++
		}
		n.mu.Unlock()
	}
	return c
}

// Status snapshots every member's membership state and stored page,
// keyed by address.
func (f *Fleet) Status() map[string]NodeStatus {
	out := make(map[string]NodeStatus, len(f.nodes))
	for addr, n := range f.nodes {
		n.mu.Lock()
		out[addr] = NodeStatus{
			Addr: addr, State: n.br.State, Depth: n.liveDepth(),
			Err: n.cause, Page: n.page, Scraped: n.scraped,
		}
		n.mu.Unlock()
	}
	return out
}

// probeLoop drives membership: every ProbeInterval it runs one
// probeRound.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	httpc := &http.Client{Timeout: f.cfg.ProbeInterval * 2}
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
		}
		f.probeRound(httpc)
	}
}

// probeRound probes each member once — /healthz, then /metrics for the
// stored page, when it has a Health address, a bare TCP dial of the
// serve address otherwise. Quarantined members are left alone until
// their backoff expires; then the probe is the half-open trial.
func (f *Fleet) probeRound(httpc *http.Client) {
	for _, n := range f.nodes {
		if !n.admittable() {
			continue
		}
		if err := f.probe(httpc, n); err != nil {
			if f.met != nil {
				f.met.probeFailed.Inc()
			}
			f.noteFailure(n, err)
		} else {
			f.noteSuccess(n)
		}
	}
}

// probe checks one member's liveness and replaces its stored page with
// this round's, none when the member is down.
func (f *Fleet) probe(httpc *http.Client, n *fleetNode) error {
	if n.node.Health == "" {
		conn, err := net.DialTimeout("tcp", n.node.Addr, f.cfg.ProbeInterval*2)
		if err != nil {
			return err
		}
		conn.Close()
		return nil
	}
	err := healthz(httpc, n.node.Health)
	// The page is best-effort decoration on the liveness verdict: a
	// member whose /metrics fails, or lacks the gauge, is healthy with no
	// page or no depth, not unhealthy.
	var page *telemetry.Snapshot
	if err == nil {
		page = scrape(httpc, n.node.Health)
	}
	depth, _ := pageDepth(page)
	n.mu.Lock()
	n.page, n.scraped, n.probedDepth = page, time.Now(), depth
	d := n.liveDepth()
	n.mu.Unlock()
	if n.depthG != nil {
		n.depthG.Set(float64(d))
	}
	return err
}

// healthz asks a member's sidecar whether it is alive.
func healthz(httpc *http.Client, health string) error {
	resp, err := httpc.Get("http://" + health + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s /healthz: %s", health, resp.Status)
	}
	return nil
}

// scrape fetches a member's /metrics page through the shared telemetry
// parser. Only a 200 answer yields a page; a truncated body yields what
// parsed before the fault.
func scrape(httpc *http.Client, health string) *telemetry.Snapshot {
	resp, err := httpc.Get("http://" + health + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	page, _ := telemetry.ParseText(io.LimitReader(resp.Body, 4<<20))
	return &page
}

// pageDepth reads the serve_requests_inflight gauge off a page. No page,
// no gauge, or a NaN or negative gauge reports no depth. A gauge past
// the int range (an Inf, 1e300), whose conversion Go leaves
// implementation-defined, saturates, so a swamped member still spills.
func pageDepth(page *telemetry.Snapshot) (int, bool) {
	if page == nil {
		return 0, false
	}
	v, ok := page.Gauges["serve_requests_inflight"]
	if !ok || math.IsNaN(v) || v < 0 {
		return 0, false
	}
	if v >= math.MaxInt {
		return math.MaxInt, true
	}
	return int(v), true
}

// Close stops the prober and drops every pooled forwarding connection.
// Forwards in flight finish on their own connections.
func (f *Fleet) Close() {
	f.closeO.Do(func() { close(f.done) })
	f.wg.Wait()
	for _, n := range f.nodes {
		n.dropIdle()
	}
}
