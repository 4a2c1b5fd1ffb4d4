// Package serve is the network front door of the reproduction: a
// preprocessing-as-a-service daemon that accepts baselines over TCP, runs
// them through a shared cluster.Pool, and streams back the repaired image,
// its Rice-compressed downlink payload, and the fault-forensics report.
//
// Server is the daemon, and it holds every serving semantic:
//
//   - Admission control: a bounded global inflight limit plus per-client
//     concurrency quotas, decided on the request header before the
//     payload is on the wire. Requests over either limit are shed with a
//     retry-after hint instead of queueing unboundedly. Admission also
//     bounds bytes, not just request count: headers declaring more than
//     the request byte budget are refused, and each frame decodes under
//     the byte budget its admitted header earned (see internal/wire), so
//     wire-claimed gob lengths cannot out-allocate the header.
//   - Dynamic batching: admitted requests coalesce for up to a small
//     window (or a maximum batch size) and their tiles submit onto the
//     pool as one wave (see batcher).
//   - Deadline propagation: the client's context deadline rides the
//     request header and bounds the pool submission on the server.
//   - Graceful drain: Shutdown stops accepting, sheds new requests with
//     StatusDraining, finishes every admitted request, then closes.
//
// Router is a Server over a Fleet backend, turning the identical
// admission pipeline into a consistent-hash front for many daemons. Both
// are built only from a Config (NewServerWith, NewRouterWith). Client is
// the matching Go client with bounded exponential-backoff retries over
// sheds and transport faults, optionally fleet-aware (DialFleet); Options
// set its fields.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/store"
	"spaceproc/internal/telemetry"
	"spaceproc/internal/wire"
)

// Server defaults, as DefaultConfig sets them.
const (
	// DefaultMaxInflight bounds admitted requests across all clients.
	DefaultMaxInflight = 64
	// DefaultRetryAfter is the shed hint handed to rejected clients.
	DefaultRetryAfter = 50 * time.Millisecond
	// DefaultBatchMax flushes a batch at this many members.
	DefaultBatchMax = 8
	// DefaultBatchWindow flushes a batch when its oldest member has
	// waited this long.
	DefaultBatchWindow = 2 * time.Millisecond
	// DefaultMaxRequestBytes bounds the in-memory payload one admitted
	// request may declare (Frames x Width x Height pixels at 2 bytes
	// each).
	DefaultMaxRequestBytes = 256 << 20
	// DefaultReceiveTimeout bounds how long a header or payload frame may
	// take to arrive once it has started, so a client that stalls
	// mid-stream releases its admission slot instead of pinning it.
	DefaultReceiveTimeout = wire.ReceiveTimeout
	// maxClientGauges caps how many distinct per-client inflight gauges
	// the server will mint, so a hostile client sweeping IDs cannot grow
	// the registry unboundedly. Quota enforcement is not affected.
	maxClientGauges = 64
	// maxHeaderBytes caps the wire bytes one header decode may consume
	// (including gob's one-time type definitions).
	maxHeaderBytes = 64 << 10
)

// Backend is the processing sink the serving tier schedules onto: a
// *cluster.Pool on a daemon, a *Fleet on a router; the indirection keeps
// the serving semantics testable against scripted pipelines.
type Backend interface {
	Submit(ctx context.Context, s *dataset.Stack) <-chan *cluster.Result
}

// Route names the origin of one request as it flows through the batcher
// into a Backend: the sanitized client ID, and the routing key a fleet
// backend hashes onto its ring (falling back to the client ID when the
// request did not pin a key).
type Route struct {
	Client string
	Key    string
}

type routeCtxKey struct{}

// WithRoute attaches the request's route to ctx for the backend.
func WithRoute(ctx context.Context, rt Route) context.Context {
	return context.WithValue(ctx, routeCtxKey{}, rt)
}

// RouteFrom recovers the route attached by WithRoute.
func RouteFrom(ctx context.Context) (Route, bool) {
	rt, ok := ctx.Value(routeCtxKey{}).(Route)
	return rt, ok
}

// clientQuota tracks one client's admitted requests.
type clientQuota struct {
	inflight int
	gauge    *telemetry.Gauge // nil without telemetry or past the gauge cap
}

// serveMetrics holds the server's registry handles, resolved once with
// the configured prefix.
type serveMetrics struct {
	requests  *telemetry.Counter
	accepted  *telemetry.Counter
	shed      *telemetry.Counter
	drainShed *telemetry.Counter
	errored   *telemetry.Counter
	inflight  *telemetry.Gauge
	reqLat    *telemetry.Histogram
	recvLat   *telemetry.Histogram
}

// Server is the daemon: admission, batching onto a Backend, durable
// ingest and drain behind one TCP transport. Construct with
// NewServerWith, start with Listen, stop with Shutdown (graceful) or
// Close (immediate).
type Server struct {
	cfg    Config
	met    *serveMetrics // nil without telemetry
	bat    *batcher
	ing    *ingest           // nil unless a WAL or dedupe cache is configured
	tracer *telemetry.Tracer // nil without telemetry
	log    *slog.Logger
	slow   slowRing

	// forceCtx is the root of every request's pipeline context. A forced
	// close cancels it so pool work is abandoned; a graceful drain leaves
	// it alone until the drain completes.
	forceCtx    context.Context
	forceCancel context.CancelFunc
	reqWG       sync.WaitGroup // admitted requests

	mu       sync.Mutex
	ln       *wire.Listener
	clients  map[string]*clientQuota // entries pruned when a client's inflight hits zero
	minted   map[string]*telemetry.Gauge
	inflight int
	draining bool
	closed   bool
}

// NewServerWith builds a daemon over the backend (normally a *cluster.Pool
// shared with the rest of the process) from cfg, used as given: a zero
// field means what its comment says, so start from DefaultConfig. Start
// it with Listen.
func NewServerWith(backend Backend, cfg Config) (*Server, error) {
	if backend == nil {
		return nil, errors.New("serve: nil backend")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PerClientQuota == 0 || cfg.PerClientQuota > cfg.MaxInflight {
		cfg.PerClientQuota = cfg.MaxInflight
	}
	ing, err := newIngest(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		bat:     newBatcher(backend, cfg.BatchMax, cfg.BatchWindow, cfg.Telemetry, cfg.MetricPrefix),
		ing:     ing,
		tracer:  cfg.Telemetry.Tracer(),
		log:     cfg.Logger,
		clients: make(map[string]*clientQuota),
		minted:  make(map[string]*telemetry.Gauge),
	}
	if reg := cfg.Telemetry; reg != nil {
		p := cfg.MetricPrefix
		s.met = &serveMetrics{
			requests:  reg.Counter(p + "_requests_total"),
			accepted:  reg.Counter(p + "_requests_accepted_total"),
			shed:      reg.Counter(p + "_shed_total"),
			drainShed: reg.Counter(p + "_drain_shed_total"),
			errored:   reg.Counter(p + "_errors_total"),
			inflight:  reg.Gauge(p + "_requests_inflight"),
			reqLat:    reg.Histogram(p + "_request"),
			recvLat:   reg.Histogram(p + "_receive"),
		}
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	return s, nil
}

// admit decides one request under the inflight limit and the client's
// quota, answering with the verdict to send. On acceptance the returned
// release must be called exactly once when the request retires; a shed
// verdict carries the retry-after hint and a nil release.
func (s *Server) admit(client string) (verdict response, release func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	shed := response{Status: StatusShed, RetryAfter: s.cfg.RetryAfter}
	if s.draining {
		if s.met != nil {
			s.met.shed.Inc()
			s.met.drainShed.Inc()
		}
		shed.Status = StatusDraining
		return shed, nil
	}
	if s.inflight >= s.cfg.MaxInflight {
		if s.met != nil {
			s.met.shed.Inc()
		}
		return shed, nil
	}
	cq := s.clients[client]
	if cq == nil {
		cq = &clientQuota{}
		if s.cfg.Telemetry != nil {
			// minted is the durable record of per-client gauges (capped,
			// so an ID sweep cannot grow the registry); clients entries
			// come and go with inflight work, and a returning client must
			// not burn a second cap slot.
			if g, ok := s.minted[client]; ok {
				cq.gauge = g
			} else if len(s.minted) < maxClientGauges {
				g = s.cfg.Telemetry.Gauge(s.cfg.MetricPrefix + "_client_" + client + "_inflight")
				s.minted[client] = g
				cq.gauge = g
			}
		}
		s.clients[client] = cq
	}
	if cq.inflight >= s.cfg.PerClientQuota {
		if s.met != nil {
			s.met.shed.Inc()
		}
		return shed, nil
	}
	s.inflight++
	cq.inflight++
	s.reqWG.Add(1)
	if s.met != nil {
		s.met.accepted.Inc()
		s.met.inflight.Set(float64(s.inflight))
	}
	if cq.gauge != nil {
		cq.gauge.Set(float64(cq.inflight))
	}
	release = func() {
		s.mu.Lock()
		s.inflight--
		cq.inflight--
		if s.met != nil {
			s.met.inflight.Set(float64(s.inflight))
		}
		if cq.gauge != nil {
			cq.gauge.Set(float64(cq.inflight))
		}
		if cq.inflight == 0 {
			// Prune the quota entry so a client sweeping IDs cannot grow
			// this map without bound; its gauge handle survives in minted.
			delete(s.clients, client)
		}
		s.mu.Unlock()
		s.reqWG.Done()
	}
	return response{Status: StatusAccepted}, release
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves connections on
// background goroutines until Shutdown or Close. Returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return "", errors.New("serve: server already shut down")
	}
	if s.ln != nil {
		return "", errors.New("serve: already listening")
	}
	ln, err := wire.Listen(addr, s.serveConn)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	s.ln = ln
	if s.log != nil {
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "serving",
			slog.String("addr", ln.Addr()))
	}
	return ln.Addr(), nil
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr()
}

// Inflight reports the number of admitted requests currently in the
// pipeline.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// serveConn answers requests on one connection until it drops or the
// server closes. The wait for a header is unbounded; once one starts
// arriving it must fit in maxHeaderBytes within the receive timeout.
func (s *Server) serveConn(c *wire.Conn) {
	for {
		var hdr header
		if c.Wait() != nil || c.Recv(&hdr, maxHeaderBytes, s.cfg.ReceiveTimeout) != nil {
			return
		}
		if !s.handle(c, hdr) {
			return
		}
	}
}

// handle runs one request exchange; it reports whether the connection is
// still in sync and should serve another.
//
// Tracing: when the wire header carries a trace position the request's
// whole handling runs as a serve_request span parented under the
// client's attempt, with admission / receive / respond child spans here
// and queue_wait / batch spans in the batcher. The server never mints
// root traces — an untraced request stays untraced — so trace volume is
// always the client's choice. Every admitted request also leaves one
// structured access-log line and competes for the slowest-requests ring.
func (s *Server) handle(c *wire.Conn, hdr header) bool {
	if s.met != nil {
		s.met.requests.Inc()
	}
	if err := hdr.validate(); err != nil {
		// The client has not streamed anything yet, so the connection
		// stays usable after an invalid header.
		if s.met != nil {
			s.met.errored.Inc()
		}
		return c.Send(&response{Status: StatusError, Err: err.Error()}) == nil
	}
	if declared := hdr.payloadBytes(); declared > s.cfg.MaxRequestBytes {
		if s.met != nil {
			s.met.errored.Inc()
		}
		return c.Send(&response{Status: StatusError,
			Err: fmt.Sprintf("serve: request declares %d payload bytes, budget is %d",
				declared, s.cfg.MaxRequestBytes)}) == nil
	}
	client := sanitizeClientID(hdr.Client, c)

	tc := telemetry.TraceContext{TraceID: hdr.TraceID, SpanID: hdr.SpanID}
	var reqSpan *telemetry.TraceSpan
	if s.tracer != nil && tc.Valid() {
		reqSpan = s.tracer.StartSpan(tc, StageServeRequest, client)
	}
	// child opens a phase span under the request span; nil (a no-op
	// throughout) when the request is untraced.
	child := func(stage, label string) *telemetry.TraceSpan {
		if reqSpan == nil {
			return nil
		}
		return s.tracer.StartSpan(reqSpan.Context(), stage, label)
	}

	adm := child(StageAdmission, client)
	verdict, release := s.admit(client)
	adm.Annotate("status", verdict.Status.String())
	adm.End()
	if verdict.Status != StatusAccepted {
		if s.log != nil {
			s.log.LogAttrs(context.Background(), slog.LevelWarn, "request shed",
				slog.String("client", client),
				slog.String("status", verdict.Status.String()),
				slog.String("trace_id", traceIDString(tc)),
				slog.Duration("retry_after", verdict.RetryAfter))
		}
		if reqSpan != nil {
			reqSpan.Annotate("outcome", verdict.Status.String())
			reqSpan.End()
		}
		return c.Send(&verdict) == nil
	}
	defer release()
	start := time.Now()
	if s.met != nil {
		defer func() { s.met.reqLat.Observe(time.Since(start)) }()
	}

	// The access log, the slowest-requests ring and the request span all
	// settle here, whatever path the request takes out of this function.
	outcome := "disconnect"
	var bs *BatchStats
	defer func() {
		dur := time.Since(start)
		var queueWait time.Duration
		batchSize := 0
		if bs != nil {
			queueWait, batchSize = bs.QueueWait, bs.BatchSize
		}
		if s.log != nil {
			s.log.LogAttrs(context.Background(), slog.LevelInfo, "request served",
				slog.String("client", client),
				slog.Int64("bytes", hdr.payloadBytes()),
				slog.Duration("queue_wait", queueWait),
				slog.Int("batch_size", batchSize),
				slog.String("outcome", outcome),
				slog.String("trace_id", traceIDString(tc)),
				slog.Duration("duration", dur))
		}
		s.slow.note(SlowRequest{
			Time:      time.Now(),
			Client:    client,
			TraceID:   traceIDString(tc),
			Outcome:   outcome,
			Bytes:     hdr.payloadBytes(),
			QueueWait: queueWait,
			BatchSize: batchSize,
			Duration:  dur,
		})
		if reqSpan != nil {
			reqSpan.Annotate("outcome", outcome)
			reqSpan.End()
		}
	}()

	if err := c.Send(&verdict); err != nil {
		return false
	}

	// Receive the baseline. A decode fault here leaves the stream
	// unsynchronized, so the connection is dropped. Each frame may cost its
	// pixels' little-endian bytes, exactly 2 each, plus the header
	// allowance (framing and the one-time type definitions), and must land
	// within the receive timeout so a stalled client cannot pin its
	// admission slot.
	recv := child(StageReceive, fmt.Sprintf("frames_%d", hdr.Frames))
	frameBudget := int64(hdr.Width)*int64(hdr.Height)*2 + maxHeaderBytes
	stack := &dataset.Stack{Frames: make([]*dataset.Image, hdr.Frames)}
	for i := range stack.Frames {
		var frame dataset.Image
		if err := c.Recv(&frame, frameBudget, s.cfg.ReceiveTimeout); err != nil {
			outcome = "recv_error"
			recv.Annotate("error", err.Error())
			recv.End()
			return false
		}
		if frame.Width != hdr.Width || frame.Height != hdr.Height || len(frame.Pix) != hdr.Width*hdr.Height {
			if s.met != nil {
				s.met.errored.Inc()
			}
			outcome = "bad_frame"
			recv.Annotate("error", "frame does not match header")
			recv.End()
			c.Send(&response{Status: StatusError,
				Err: fmt.Sprintf("serve: frame %d is %dx%d (%d px), header said %dx%d",
					i, frame.Width, frame.Height, len(frame.Pix), hdr.Width, hdr.Height)})
			return false
		}
		stack.Frames[i] = &frame
	}
	recv.End()
	if s.met != nil {
		s.met.recvLat.Observe(time.Since(start))
	}
	key := hdr.Key
	if key == "" {
		key = client
	}

	// Durable ingest: when enabled, address the baseline by content. A
	// digest matching a previously served baseline is answered straight
	// from the dedupe cache — the pipeline is deterministic, so the
	// cached result is bit-identical to a recomputation. A miss is
	// appended to the WAL before it enters the batcher, so a crash
	// between here and the response replays it on restart.
	var (
		dig    store.Digest
		walSeq uint64
		logged bool
	)
	if s.ing != nil {
		dig = store.StackDigest(stack)
		if cached, ok := s.ing.cached(dig); ok {
			resp := child(StageRespond, client)
			sent := c.Send(&response{Status: StatusOK, Result: cached}) == nil
			resp.End()
			if sent {
				outcome = "dedupe_hit"
			}
			return sent
		}
		walSeq, logged = s.ing.logAdmitted(client, key, dig, stack)
	}

	// Run the baseline through the backend, honoring the client's
	// deadline and dying with the server on a forced close. The route
	// rides the context so a fleet backend can place the request on its
	// ring by the client's key; the trace position rides it too, so the
	// batcher's and backend's spans continue this request's trace.
	ctx := s.forceCtx
	if !hdr.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, hdr.Deadline)
		defer cancel()
	}
	ctx = WithRoute(ctx, Route{Client: client, Key: key})
	ctx, bs = withBatchStats(ctx)
	if reqSpan != nil {
		ctx = telemetry.ContextWithTrace(ctx, s.tracer, reqSpan.Context())
	}
	res := <-s.bat.submit(ctx, stack)
	// Whatever the pipeline answered, the exchange is resolved: the WAL
	// entry must not replay after a restart (a crash before this point is
	// exactly what replay is for), and a served result seeds the dedupe
	// cache. Failures commit too — shed and errored requests are resolved
	// by their response, and the client owns the retry.
	if logged {
		var cacheRes *cluster.Result
		if res.Err == nil {
			cacheRes = res
		}
		s.ing.resolveLogged(walSeq, dig, cacheRes)
	} else if s.ing != nil && res.Err == nil {
		s.ing.cache(dig, res)
	}
	if res.Err != nil {
		// A backend shed (the fleet found every candidate saturated) is
		// relayed as a retryable shed, not a terminal error, so clients
		// back off and replay exactly as if admission had refused them.
		if errors.Is(res.Err, ErrShed) {
			if s.met != nil {
				s.met.shed.Inc()
			}
			if s.log != nil {
				s.log.LogAttrs(ctx, slog.LevelWarn, "request shed by backend",
					slog.String("client", client))
			}
			outcome = "shed"
			return c.Send(&response{Status: StatusShed, RetryAfter: s.cfg.RetryAfter}) == nil
		}
		if s.met != nil {
			s.met.errored.Inc()
		}
		if s.log != nil {
			s.log.LogAttrs(ctx, slog.LevelWarn, "request failed",
				slog.String("client", client),
				slog.String("error", res.Err.Error()))
		}
		outcome = "error"
		return c.Send(&response{Status: StatusError, Err: res.Err.Error()}) == nil
	}
	resp := child(StageRespond, client)
	ok := c.Send(&response{Status: StatusOK, Result: res}) == nil
	resp.End()
	if ok {
		outcome = "ok"
	}
	return ok
}

// traceIDString renders the trace ID for logs ("" when untraced).
func traceIDString(tc telemetry.TraceContext) string {
	if !tc.Valid() {
		return ""
	}
	return fmt.Sprintf("%016x", tc.TraceID)
}

// Shutdown drains the server gracefully: stop accepting connections, shed
// new requests with StatusDraining, wait for every admitted request to
// finish (bounded by ctx), then close the remaining connections. It
// returns nil on a clean drain and ctx.Err() when the deadline forced the
// close. A concurrent Shutdown waits out the drain the first one owns,
// still honoring its own deadline with a forced close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	owner := !s.draining
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if owner {
		// Flush the batcher so no admitted request waits on a batch
		// window the shutdown is racing.
		s.bat.drain()
		if ln != nil {
			ln.Stop()
		}
		if s.log != nil {
			s.log.LogAttrs(ctx, slog.LevelInfo, "draining",
				slog.Int("inflight", s.Inflight()))
		}
	}

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline hit: cancel the remaining requests' pipeline contexts
		// so their pool submissions abandon instead of running on, and
		// close the connections — cancellation alone cannot unblock a
		// handler parked in a network read or write, and the drain must
		// not wait on one.
		s.forceCancel()
		if ln != nil {
			ln.CloseConns()
		}
		<-done
	}
	if !owner {
		return err
	}

	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.forceCancel()
	s.ing.close()
	if s.log != nil {
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "drained")
	}
	return err
}

// Close shuts down immediately: inflight requests' contexts are cancelled
// and connections dropped without waiting for a drain.
func (s *Server) Close() {
	forced, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(forced) //nolint:errcheck // forced close, error is ctx.Canceled by construction
}

// sanitizeClientID maps a wire-supplied client ID onto the quota and
// telemetry keyspace: metric-safe runes only, bounded length, remote host
// as the fallback for anonymous clients.
func sanitizeClientID(id string, conn interface{ RemoteAddr() net.Addr }) string {
	if id == "" {
		host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
		if err != nil {
			host = conn.RemoteAddr().String()
		}
		id = host
	}
	if id = metricName(id, 32); id == "" {
		return "anon"
	}
	return id
}

// metricName maps s onto the telemetry keyspace: runes outside
// [A-Za-z0-9_-] become '_', and the name stops at limit bytes.
func metricName(s string, limit int) string {
	var b strings.Builder
	b.Grow(min(len(s), limit))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= limit {
			break
		}
	}
	return b.String()
}
