package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
	"spaceproc/internal/wire"
)

// The TCP transport stands in for the Myrinet interconnect of the Figure 1
// architecture: each slave node runs a Server wrapping a Worker; the master
// holds one RemoteWorker per slave. Frames are gob-encoded tiles and
// results over a persistent connection, one request in flight per worker
// (matching the master/slave dispatch of the paper's pipeline). Context
// deadlines propagate: the master-side proxy applies them to the socket and
// ships them in the request so the slave enforces the same cut-off.

// request is the wire format of one dispatch.
type request struct {
	Tile dataset.Tile
	// Deadline is the absolute processing cut-off (zero when the caller's
	// context carries none); the serving node derives its own context from
	// it, so deadlines survive the wire.
	Deadline time.Time
	// Trace is the dispatching master's trace position (zero when the
	// master is not tracing). The serving node parents its serve span
	// under it, so the tile's story stays one causal chain across the
	// socket.
	Trace telemetry.TraceContext
}

// response is the wire format of one result.
type response struct {
	Result TileResult
	Err    string
	// Spans carries the serving node's completed trace events back to the
	// master, which folds them into its tracer — the single artifact a
	// ground operator loads in chrome://tracing.
	Spans []telemetry.TraceEvent
}

// wireSlack is what a worker-port value may cost beyond its pixels' 2
// bytes each: gob's type definitions and framing, a result's stats and
// the spans it carries back.
const wireSlack = 64 << 10

// maxRequestBytes bounds the wire bytes of one request on the worker port:
// the largest baseline the serve port admits by default, 256 MiB of
// pixels that cross as little-endian bytes, plus wireSlack.
const maxRequestBytes = 256<<20 + wireSlack

// Server exposes a Worker over TCP. With WithServerTelemetry it records
// request counters and serve latency. Idle connections may wait between
// requests indefinitely, but once a request starts arriving it must fit
// in maxRequestBytes and land within wire.ReceiveTimeout, or the
// connection is dropped.
type Server struct {
	worker Worker
	tel    *telemetry.Registry
	log    *slog.Logger
	// Per-request bounds, from maxRequestBytes and wire.ReceiveTimeout.
	maxRequest  int64
	recvTimeout time.Duration

	mu     sync.Mutex
	ln     *wire.Listener
	closed bool

	requests *telemetry.Counter
	errored  *telemetry.Counter
	serveLat *telemetry.Histogram
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerTelemetry wires the server's request counters and latency
// histogram into reg.
func WithServerTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.tel = reg }
}

// WithServerLogger routes the server's WARN-level request forensics
// (failed tiles, expired deadlines) into l.
func WithServerLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// NewServer returns a server around the worker.
func NewServer(w Worker, opts ...ServerOption) *Server {
	s := &Server{worker: w, maxRequest: maxRequestBytes, recvTimeout: wire.ReceiveTimeout}
	for _, o := range opts {
		o(s)
	}
	if s.tel != nil {
		s.requests = s.tel.Counter("server_requests_total")
		s.errored = s.tel.Counter("server_errors_total")
		s.serveLat = s.tel.Histogram("server_process")
	}
	return s
}

// Telemetry returns the server's registry (nil unless telemetry was
// configured).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines
// until Close.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("cluster: server already closed")
	}
	ln, err := wire.Listen(addr, s.serve)
	if err != nil {
		return "", fmt.Errorf("cluster: listen: %w", err)
	}
	s.ln = ln
	return ln.Addr(), nil
}

// serve answers requests on one connection until it drops.
func (s *Server) serve(c *wire.Conn) {
	for {
		var req request
		if c.Wait() != nil || c.Recv(&req, s.maxRequest, s.recvTimeout) != nil {
			return
		}
		res, spans, err := s.process(req)
		resp := response{Result: res, Spans: spans}
		if err != nil {
			resp = response{Err: err.Error(), Spans: spans}
		}
		if c.Send(&resp) != nil {
			return
		}
	}
}

// process runs one request under the deadline it carried, recording server
// telemetry when configured. Every request is one serve span on the
// server's tracer. When the request carries a trace, the span continues it
// — same trace ID, parented under the master's dispatch — and rides back
// in the response for the master's artifact.
func (s *Server) process(req request) (TileResult, []telemetry.TraceEvent, error) {
	ctx := context.Background()
	if !req.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.Deadline)
		defer cancel()
	}
	var serveTC telemetry.TraceContext
	if req.Trace.Valid() {
		serveTC = telemetry.TraceContext{TraceID: req.Trace.TraceID, SpanID: telemetry.NewSpanID()}
		ctx = telemetry.ContextWithTrace(ctx, s.tel.Tracer(), serveTC)
	}
	start := time.Now()
	if s.tel != nil {
		s.requests.Inc()
	}
	res, err := s.worker.ProcessTile(ctx, req.Tile)
	d := time.Since(start)
	if s.tel != nil {
		s.serveLat.Observe(d)
		if err != nil {
			s.errored.Inc()
		}
	}
	ev := telemetry.TraceEvent{
		TraceID: serveTC.TraceID, SpanID: serveTC.SpanID, ParentID: req.Trace.SpanID,
		Stage: "serve", Label: fmt.Sprintf("tile_%d", req.Tile.Index),
		Start: start, Dur: d,
	}
	if err != nil {
		ev.Args = map[string]string{"error": err.Error()}
	}
	var spans []telemetry.TraceEvent
	if req.Trace.Valid() {
		s.mu.Lock()
		ev.Proc = "worker " + s.ln.Addr()
		s.mu.Unlock()
		spans = append(spans, ev)
	}
	s.tel.Tracer().Record(ev)
	if err != nil && s.log != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "serve failed",
			slog.Int("tile", req.Tile.Index),
			slog.String("error", err.Error()))
	}
	return res, spans, err
}

// Close stops the server and waits for in-flight requests.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// RemoteWorker is the master-side proxy for a slave node. A lost
// connection is re-dialed with bounded exponential backoff on the next
// call, so a slave that restarts (same address, new process) rejoins
// without the pool ever dropping the proxy. Mid-exchange transport errors
// still surface immediately — the call stays at-most-once and the pool's
// retry/breaker logic owns redelivery.
type RemoteWorker struct {
	addr string
	dial wire.Dialer

	mu   sync.Mutex
	conn *wire.Conn
}

var _ Worker = (*RemoteWorker)(nil)

// DialOption configures a RemoteWorker.
type DialOption func(*RemoteWorker)

// WithDialBackoff tunes the reconnect loop: attempts dials per connect,
// sleeping base (doubling each attempt) between them. The defaults are
// wire.DefaultDialAttempts and wire.DefaultDialBackoff.
func WithDialBackoff(attempts int, base time.Duration) DialOption {
	return func(w *RemoteWorker) { w.dial.Attempts, w.dial.Backoff = attempts, base }
}

// Dial connects to a slave served by Server.
func Dial(addr string, opts ...DialOption) (*RemoteWorker, error) {
	w := &RemoteWorker{addr: addr, dial: wire.Dialer{Attempts: wire.DefaultDialAttempts, Backoff: wire.DefaultDialBackoff}}
	for _, o := range opts {
		o(w)
	}
	if err := w.connect(context.Background()); err != nil {
		return nil, err
	}
	return w, nil
}

// connect dials the slave with bounded exponential backoff, so a worker
// that is mid-restart when the proxy needs it gets a short grace window
// instead of an instant failure. Callers hold w.mu.
func (w *RemoteWorker) connect(ctx context.Context) (err error) {
	w.conn, _, err = w.dial.Dial(ctx, func() []string { return []string{w.addr} })
	return err
}

// ProcessTile implements Worker by round-tripping the tile to the slave.
// The context's deadline is applied to the socket and shipped with the
// request; cancellation unblocks the in-flight round-trip by expiring the
// socket. A transport error tears down the connection (the master's retry
// logic reassigns the tile); the next call re-dials.
func (w *RemoteWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	if err := checkTile(t); err != nil {
		return TileResult{}, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		if err := w.connect(ctx); err != nil {
			return TileResult{}, err
		}
	}
	defer w.conn.Bind(ctx)()

	req := request{Tile: t}
	req.Deadline, _ = ctx.Deadline()
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		req.Trace = tc
	}
	if err := w.conn.Send(&req); err != nil {
		w.teardown()
		return TileResult{}, transportErr(ctx, "send", t.Index, err)
	}
	// The answer is one image of the tile's size, so that bounds what the
	// slave may make this side read.
	var resp response
	if err := w.conn.Recv(&resp, 2*int64(t.Stack.Width())*int64(t.Stack.Height())+wireSlack, 0); err != nil {
		w.teardown()
		return TileResult{}, transportErr(ctx, "receive", t.Index, err)
	}
	// Fold the slave's spans into the dispatching side's trace before
	// surfacing any remote error: a failed serve still leaves its span.
	// The slave's registry already counted them.
	if tr := telemetry.TracerFromContext(ctx); tr != nil {
		for _, ev := range resp.Spans {
			tr.Adopt(ev)
		}
	}
	if resp.Err != "" {
		return TileResult{}, fmt.Errorf("cluster: remote: %s", resp.Err)
	}
	return resp.Result, nil
}

// transportErr attributes an I/O failure to the context when it was the
// cause (cancellation or deadline), so callers can distinguish a dead
// worker from an abandoned run.
func transportErr(ctx context.Context, op string, tile int, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("cluster: %s tile %d: %w", op, tile, ctxErr)
	}
	return fmt.Errorf("cluster: %s tile %d: %w", op, tile, err)
}

func (w *RemoteWorker) teardown() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// Close drops the connection.
func (w *RemoteWorker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.teardown()
}
