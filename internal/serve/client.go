package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"spaceproc/internal/breaker"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/serve/ring"
	"spaceproc/internal/telemetry"
	"spaceproc/internal/wire"
)

// Client defaults, as DefaultConfig sets them; override with
// WithRetryPolicy.
const (
	// DefaultAttempts bounds tries per Process call (first try plus
	// retries over sheds and transport faults).
	DefaultAttempts = 4
	// DefaultRetryBackoff is the first retry delay; it doubles per
	// attempt up to DefaultRetryBackoffMax, and is floored by the
	// server's retry-after hint when one was given.
	DefaultRetryBackoff    = 25 * time.Millisecond
	DefaultRetryBackoffMax = 1 * time.Second
)

// ErrShed is wrapped into the error returned when every attempt was shed;
// callers can errors.Is it to distinguish overload from hard failures.
var ErrShed = errors.New("serve: request shed")

// ErrRemote is wrapped into errors the server reported as terminal
// (invalid request, pipeline failure): the transport worked, the request
// cannot succeed by retrying. A fleet distinguishes it from transport
// faults — a node answering ErrRemote is alive and must not be ejected.
var ErrRemote = errors.New("serve: remote error")

// clientMetrics holds the client's registry handles.
type clientMetrics struct {
	requests *telemetry.Counter
	sheds    *telemetry.Counter
	retries  *telemetry.Counter
	errored  *telemetry.Counter
	canceled *telemetry.Counter
	lat      *telemetry.Histogram
}

// Client is the Go client for a serve.Server or Router: one connection,
// sequential requests, bounded exponential-backoff retries over sheds
// (honoring the server's retry-after hint as the floor) and transport
// faults (re-dialing with bounded backoff, see wire.Dialer). Open several
// clients for parallel submissions.
//
// A fleet-aware client (DialFleet) holds the same consistent-hash ring a
// router would and dials the member owning its client ID, failing over
// along the ring when that node is unreachable. Each member's dials feed
// a circuit breaker, so a member that keeps refusing is tried last until
// its quarantine ends instead of costing a connect timeout every time.
//
// A Client is safe for concurrent use; concurrent Process calls serialize
// over the single connection.
type Client struct {
	cfg   Config
	addrs []string   // candidate servers; len > 1 makes the client fleet-aware
	ring  *ring.Ring // nil for a single-address client

	met    *clientMetrics
	tracer *telemetry.Tracer // nil without telemetry; spans degrade to no-ops
	log    *slog.Logger

	mu      sync.Mutex
	conn    *wire.Conn
	addr    string                      // address of the live conn
	nodes   map[string]*breaker.Breaker // dial health per fleet member
	backoff time.Duration               // current retry delay: doubles per shed, resets on success
}

// DialClient connects to a single serve.Server or Router, with opts
// applied over DefaultConfig.
func DialClient(addr string, opts ...Option) (*Client, error) {
	return dial([]string{addr}, opts)
}

// DialFleet connects a fleet-aware client: requests route to the member
// owning the client's ID on the consistent-hash ring (configure it with
// WithRing to match the fleet's routers), failing over to ring
// successors when a member is unreachable.
func DialFleet(addrs []string, opts ...Option) (*Client, error) {
	return dial(addrs, opts)
}

// dial connects using the client fields opts set over DefaultConfig
// (invalid values are clamped, not errors — a half-configured client
// still makes progress).
func dial(addrs []string, opts []Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("serve: no server address")
	}
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.clampClient()
	c := newClient(cfg, addrs)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connect(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds an unconnected client; try dials lazily.
func newClient(cfg Config, addrs []string) *Client {
	c := &Client{
		cfg:     cfg,
		addrs:   append([]string(nil), addrs...),
		nodes:   make(map[string]*breaker.Breaker),
		backoff: cfg.RetryBackoff,
	}
	if len(addrs) > 1 {
		c.ring = ring.New(cfg.VirtualNodes, cfg.RingSeed)
		c.ring.Add(addrs...)
	}
	if cfg.Telemetry != nil {
		c.met = &clientMetrics{
			requests: cfg.Telemetry.Counter("client_requests_total"),
			sheds:    cfg.Telemetry.Counter("client_sheds_total"),
			retries:  cfg.Telemetry.Counter("client_retries_total"),
			errored:  cfg.Telemetry.Counter("client_errors_total"),
			canceled: cfg.Telemetry.Counter("client_canceled_total"),
			lat:      cfg.Telemetry.Histogram("client_request"),
		}
		c.tracer = cfg.Telemetry.Tracer()
	}
	c.log = cfg.Logger
	return c
}

// candidates returns the dial order: the ring sequence for the client's
// ID with quarantined members demoted to the back, so a recently dead
// member is the last resort instead of the first timeout. Callers hold
// c.mu.
func (c *Client) candidates() []string {
	if c.ring == nil {
		return c.addrs
	}
	seq := c.ring.Sequence(c.cfg.ClientID)
	due := make([]string, 0, len(seq))
	var avoided []string
	for _, a := range seq {
		if b := c.nodes[a]; b != nil && !b.Admit() {
			avoided = append(avoided, a)
			continue
		}
		due = append(due, a)
	}
	return append(due, avoided...)
}

// noteDial records one dial outcome for a fleet member. Callers hold
// c.mu.
func (c *Client) noteDial(addr string, err error) {
	if c.ring == nil {
		return
	}
	b := c.nodes[addr]
	if b == nil {
		b = &breaker.Breaker{}
		c.nodes[addr] = b
	}
	if err == nil {
		b.Succeed()
	} else {
		b.Fail(c.cfg.ProbeFailures, c.cfg.ProbeBackoff, c.cfg.ProbeBackoffMax)
	}
}

// connect dials a server with bounded exponential backoff, walking the
// failover candidates on each pass for a fleet-aware client. Callers
// hold c.mu.
func (c *Client) connect(ctx context.Context) (err error) {
	d := wire.Dialer{Attempts: c.cfg.DialAttempts, Backoff: c.cfg.DialBackoff, Note: c.noteDial}
	c.conn, c.addr, err = d.Dial(ctx, c.candidates)
	return err
}

// ensureConnected dials if the client has no live connection, bounded by
// ctx — the fleet uses it to cap a forwarding dial separately from the
// request's own deadline.
func (c *Client) ensureConnected(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		return nil
	}
	return c.connect(ctx)
}

func (c *Client) teardown() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.addr = ""
	}
}

// Close drops the connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.teardown()
}

// Addr returns the address of the live connection ("" when disconnected)
// — for a fleet-aware client, the member currently serving it.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// Process streams the baseline to the server and returns the served
// result. Sheds and transport faults are retried with bounded exponential
// backoff (the server's retry-after hint floors each delay); terminal
// server errors (errors.Is ErrRemote) and context expiry return
// immediately. When every attempt was shed the returned error wraps
// ErrShed.
func (c *Client) Process(ctx context.Context, s *dataset.Stack) (*Result, error) {
	return c.process(ctx, c.cfg.ClientID, "", s)
}

// ProcessKeyed is Process with an explicit routing key: fleet routers
// (and fleet-aware clients) place the request on the ring by key instead
// of the client's ID, so callers can pin related baselines — one
// dataset's readouts, say — to one node.
func (c *Client) ProcessKeyed(ctx context.Context, key string, s *dataset.Stack) (*Result, error) {
	return c.process(ctx, c.cfg.ClientID, key, s)
}

// process is the retry loop shared by Process, ProcessKeyed, and the
// fleet's forwarders (which override clientID to preserve the original
// submitter's quota identity end to end).
//
// Tracing: a client with telemetry opens one client_request root span per
// call (a child when ctx already carries a trace, so callers like loadgen
// can parent many requests under one run) and one client_attempt span per
// try — sheds, failovers and retries each leave their own annotated span.
// The attempt's position rides the wire header, so the server's
// serve_request span parents under the attempt that reached it. A lean
// client without telemetry (the fleet's forwarders) records nothing and
// propagates the context's trace position verbatim, so the router's
// forward span becomes the downstream daemon's parent.
func (c *Client) process(ctx context.Context, clientID, key string, s *dataset.Stack) (*Result, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("serve: empty baseline")
	}
	start := time.Now()
	if c.met != nil {
		c.met.requests.Inc()
		defer func() { c.met.lat.Observe(time.Since(start)) }()
	}
	tc, _ := telemetry.TraceFromContext(ctx)
	var root *telemetry.TraceSpan
	if c.tracer != nil {
		root = c.tracer.StartSpan(tc, StageClientRequest, clientID)
		tc = root.Context()
		defer root.End()
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		att := c.tracer.StartSpan(tc, StageClientAttempt, fmt.Sprintf("attempt_%d", attempt))
		attTC := att.Context()
		if !attTC.Valid() {
			attTC = tc
		}
		res, retryIn, err := c.try(ctx, clientID, key, s, attTC)
		endAttempt(att, retryIn, err)
		if err == nil && retryIn < 0 {
			// The server took a request, so its earlier sheds were
			// transient load, not a trend: the next shed starts the
			// backoff ladder from its base again. Without this reset a
			// long-lived connection that saw early sheds would keep its
			// inflated delay forever.
			c.resetBackoff()
			return res, nil
		}
		var terminal *terminalError
		switch {
		case errors.As(err, &terminal):
			if c.met != nil {
				c.met.errored.Inc()
			}
			return nil, terminal.err
		case ctx.Err() != nil:
			// Cancellation is the caller's doing, not the server's: count
			// it in its own series so an aborted run does not read as
			// server errors in client_errors_total.
			if c.met != nil {
				c.met.canceled.Inc()
			}
			return nil, ctx.Err()
		case err != nil:
			lastErr = err
		default: // shed
			if c.met != nil {
				c.met.sheds.Inc()
			}
			lastErr = fmt.Errorf("%w after %d attempt(s)", ErrShed, attempt)
		}
		if attempt >= c.cfg.Attempts {
			if c.met != nil {
				c.met.errored.Inc()
			}
			return nil, lastErr
		}
		delay := c.nextDelay(retryIn)
		if c.log != nil {
			c.log.LogAttrs(ctx, slog.LevelWarn, "retrying request",
				slog.Int("attempt", attempt),
				slog.Duration("delay", delay),
				slog.Any("cause", lastErr))
		}
		if c.met != nil {
			c.met.retries.Inc()
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			if c.met != nil {
				c.met.canceled.Inc()
			}
			return nil, ctx.Err()
		}
	}
}

// nextDelay picks the next retry delay: the ladder's current rung, or
// the server's retry-after hint when the hint is longer. The ladder is
// connection-scoped, not call-scoped: consecutive shed requests on a
// persistent connection keep climbing it, and only a success
// (resetBackoff) descends. It escalates (doubling up to the max) only
// when its own delay is the one used — when the server's hint overrides
// it, the server has already set the pace, and burning a rung on top
// would double-escalate every hinted retry.
func (c *Client) nextDelay(hint time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hint > c.backoff {
		return hint
	}
	d := c.backoff
	if c.backoff *= 2; c.backoff > c.cfg.RetryBackoffMax {
		c.backoff = c.cfg.RetryBackoffMax
	}
	return d
}

// resetBackoff restarts the retry ladder after a served request.
func (c *Client) resetBackoff() {
	c.mu.Lock()
	c.backoff = c.cfg.RetryBackoff
	c.mu.Unlock()
}

// endAttempt annotates one client_attempt span with its outcome and
// records it. Nil spans (no telemetry) are no-ops throughout.
func endAttempt(att *telemetry.TraceSpan, retryIn time.Duration, err error) {
	if att == nil {
		return
	}
	switch {
	case err == nil && retryIn < 0:
		att.Annotate("outcome", "ok")
	case err == nil:
		att.Annotate("outcome", "shed")
		att.Annotate("retry_after", retryIn.String())
	default:
		att.Annotate("outcome", "error")
		att.Annotate("error", err.Error())
	}
	att.End()
}

// resultBudget bounds the wire bytes of a served result for a w x h
// request: the image's little-endian pixels, the Rice payload at its
// worst, and maxHeaderBytes for stats, framing and type definitions.
func resultBudget(w, h int) int64 {
	n := w * h
	return 2*int64(n) + int64(rice.MaxEncodedLen(n)) + maxHeaderBytes
}

// terminalError marks a server-reported failure that retrying cannot fix.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// remoteError wraps a server-reported message so callers can errors.Is
// the ErrRemote sentinel.
func remoteError(msg string) *terminalError {
	return &terminalError{fmt.Errorf("%w: %s", ErrRemote, msg)}
}

// try runs one attempt. Outcomes: (res, -1, nil) success; (nil, hint, nil)
// shed, retry no earlier than hint; (nil, 0, err) transport fault
// (retryable) or *terminalError. tc is the trace position the server
// should parent under (zero for untraced).
func (c *Client) try(ctx context.Context, clientID, key string, s *dataset.Stack, tc telemetry.TraceContext) (*Result, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if c.conn == nil {
		if err := c.connect(ctx); err != nil {
			return nil, 0, err
		}
	}
	defer c.conn.Bind(ctx)()

	hdr := header{Client: clientID, Key: key, Frames: s.Len(), Width: s.Width(), Height: s.Height(),
		TraceID: tc.TraceID, SpanID: tc.SpanID}
	hdr.Deadline, _ = ctx.Deadline()
	if err := c.conn.Send(&hdr); err != nil {
		c.teardown()
		return nil, 0, fmt.Errorf("serve: send header: %w", err)
	}
	var verdict response
	if err := c.conn.Recv(&verdict, maxHeaderBytes, 0); err != nil {
		c.teardown()
		return nil, 0, fmt.Errorf("serve: receive admission: %w", err)
	}
	switch verdict.Status {
	case StatusShed, StatusDraining:
		return nil, verdict.RetryAfter, nil
	case StatusError:
		return nil, 0, remoteError(verdict.Err)
	case StatusAccepted:
	default:
		c.teardown()
		return nil, 0, fmt.Errorf("serve: unexpected admission status %v", verdict.Status)
	}
	for _, frame := range s.Frames {
		if err := c.conn.Send(frame); err != nil {
			c.teardown()
			return nil, 0, fmt.Errorf("serve: send frame: %w", err)
		}
	}
	var final response
	if err := c.conn.Recv(&final, resultBudget(s.Width(), s.Height()), 0); err != nil {
		c.teardown()
		return nil, 0, fmt.Errorf("serve: receive result: %w", err)
	}
	switch final.Status {
	case StatusOK:
		res := final.Result
		if res == nil || res.Image == nil || res.Image.Width != s.Width() || res.Image.Height != s.Height() ||
			len(res.Image.Pix) != s.Width()*s.Height() {
			c.teardown()
			return nil, 0, fmt.Errorf("serve: served image does not match the %dx%d request", s.Width(), s.Height())
		}
		return res, -1, nil
	case StatusShed, StatusDraining:
		// A post-admission shed: a router admitted the request but found
		// every fleet candidate saturated by the time it forwarded. The
		// connection is still in sync, so back off and retry like an
		// admission shed.
		return nil, final.RetryAfter, nil
	case StatusError:
		return nil, 0, remoteError(final.Err)
	default:
		c.teardown()
		return nil, 0, fmt.Errorf("serve: unexpected result status %v", final.Status)
	}
}
