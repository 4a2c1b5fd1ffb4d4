package serve

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/telemetry"
)

// fakeBackend scripts the pipeline behind a Server: process integrates
// the stack trivially (first frame) so round trips are checkable, and an
// optional gate holds every submission until released.
type fakeBackend struct {
	gate    chan struct{} // nil: no gating; submissions block until closed
	started chan struct{} // buffered; receives one token per submission
	submits atomic.Int64
	fail    error // non-nil: every submission fails with this
}

func (f *fakeBackend) Submit(ctx context.Context, s *dataset.Stack) <-chan *cluster.Result {
	f.submits.Add(1)
	out := make(chan *cluster.Result, 1)
	go func() {
		if f.started != nil {
			f.started <- struct{}{}
		}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-ctx.Done():
				out <- &cluster.Result{Err: ctx.Err()}
				return
			}
		}
		if err := ctx.Err(); err != nil {
			out <- &cluster.Result{Err: err}
			return
		}
		if f.fail != nil {
			out <- &cluster.Result{Err: f.fail}
			return
		}
		img := s.Frames[0].Clone()
		out <- &cluster.Result{Image: img, Compressed: rice.Encode(img.Pix)}
	}()
	return out
}

// testStack builds a small deterministic baseline.
func testStack(frames, w, h int) *dataset.Stack {
	s := dataset.NewStack(frames, w, h)
	for f, frame := range s.Frames {
		for i := range frame.Pix {
			frame.Pix[i] = uint16((f*31 + i*7) % 1024)
		}
	}
	return s
}

// startServer boots a server over the backend from DefaultConfig, as
// edits change it, and registers cleanup.
func startServer(t *testing.T, backend Backend, edits ...func(*Config)) (*Server, string) {
	t.Helper()
	cfg := DefaultConfig()
	for _, edit := range edits {
		edit(&cfg)
	}
	srv, err := NewServerWith(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func dialClient(t *testing.T, addr string, opts ...Option) *Client {
	t.Helper()
	c, err := DialClient(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServerWith(nil, DefaultConfig()); err == nil {
		t.Fatal("nil backend should error")
	}
	cfg := DefaultConfig()
	cfg.PerClientQuota = -1
	if _, err := NewServerWith(&fakeBackend{}, cfg); err == nil {
		t.Fatal("negative quota should error")
	}
}

// TestZeroConfigFieldMeansItsComment builds daemons and routers from a
// Config with one field zeroed and checks that the zero does what the
// field's comment says rather than taking a default: BatchMax or
// BatchWindow 0 serves unbatched, ProbeInterval 0 starts no prober, and a
// zero admission bound or metric prefix is rejected.
func TestZeroConfigFieldMeansItsComment(t *testing.T) {
	// dead is an address nothing listens on: a fleet member a prober
	// would eject at its first probe.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	// unbatched submits one baseline straight to the batcher and checks
	// it flushed alone, without waiting on a batch window.
	unbatched := func(t *testing.T, srv *Server) {
		ctx, bs := withBatchStats(context.Background())
		select {
		case <-srv.bat.submit(ctx, testStack(1, 4, 4)):
		case <-time.After(5 * time.Second):
			t.Fatal("a lone request waited on a batch window")
		}
		if bs.BatchSize != 1 || bs.QueueWait >= DefaultBatchWindow {
			t.Fatalf("batch of %d after %v, want a batch of 1 with no window wait", bs.BatchSize, bs.QueueWait)
		}
	}
	// noProber waits out several default probe periods and checks the
	// dead member was never probed out of the ring.
	noProber := func(t *testing.T, srv *Server) {
		time.Sleep(3 * DefaultProbeInterval)
		if st := srv.bat.backend.(*Fleet).Status()[dead].State; st != NodeHealthy {
			t.Fatalf("dead member is %v: a prober ran", st)
		}
	}
	rows := []struct {
		field  string
		zero   func(*Config)
		check  func(*testing.T, *Server) // nil: construction must fail
		router bool                      // router only; a daemon has no fleet
	}{
		{"BatchMax", func(c *Config) { c.BatchMax, c.BatchWindow = 0, time.Hour }, unbatched, false},
		{"BatchWindow", func(c *Config) { c.BatchMax, c.BatchWindow = 2, 0 }, unbatched, false},
		{"ProbeInterval", func(c *Config) { c.ProbeInterval, c.ProbeFailures = 0, 1 }, noProber, true},
		{"MaxInflight", func(c *Config) { c.MaxInflight = 0 }, nil, false},
		{"RetryAfter", func(c *Config) { c.RetryAfter = 0 }, nil, false},
		{"MaxRequestBytes", func(c *Config) { c.MaxRequestBytes = 0 }, nil, false},
		{"ReceiveTimeout", func(c *Config) { c.ReceiveTimeout = 0 }, nil, false},
		{"MetricPrefix", func(c *Config) { c.MetricPrefix = "" }, nil, false},
	}
	for _, row := range rows {
		for _, kind := range []string{"daemon", "router"} {
			if row.router && kind == "daemon" {
				continue
			}
			t.Run(row.field+"/"+kind, func(t *testing.T) {
				var srv *Server
				var err error
				if kind == "daemon" {
					cfg := DefaultConfig()
					row.zero(&cfg)
					srv, err = NewServerWith(&fakeBackend{}, cfg)
				} else {
					cfg := DefaultRouterConfig()
					cfg.Fleet = []Node{{Addr: dead}}
					row.zero(&cfg)
					var r *Router
					if r, err = NewRouterWith(cfg); err == nil {
						t.Cleanup(r.Close)
						srv = r.Server
					}
				}
				if row.check == nil {
					if err == nil {
						t.Fatalf("zero %s was accepted", row.field)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				row.check(t, srv)
			})
		}
	}
}

// rawConn opens a bare gob connection to the server for protocol-level
// tests.
func rawConn(t *testing.T, addr string) (net.Conn, *gob.Encoder, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, gob.NewEncoder(conn), gob.NewDecoder(conn)
}

// TestRequestOverByteBudgetRejected proves a header declaring more than
// the request byte budget is refused before any payload moves and the
// connection stays usable for an in-budget request.
func TestRequestOverByteBudgetRejected(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb, func(c *Config) { c.MaxRequestBytes = 64 }) // 32 pixels
	_, enc, dec := rawConn(t, addr)

	if err := enc.Encode(&header{Frames: 1, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Err, "budget") {
		t.Fatalf("want budget StatusError, got %v %q", resp.Status, resp.Err)
	}

	// An in-budget request on the same connection still round-trips.
	stack := testStack(1, 4, 4)
	if err := enc.Encode(&header{Frames: 1, Width: 4, Height: 4}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v (%s)", resp.Status, resp.Err)
	}
	if err := enc.Encode(stack.Frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("want OK, got %v (%s)", resp.Status, resp.Err)
	}
}

// TestPayloadWireBudgetEnforced proves a payload stream that claims far
// more wire bytes than the admitted header earns is cut off instead of
// decoded: the server drops the connection without a response.
func TestPayloadWireBudgetEnforced(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	_, enc, dec := rawConn(t, addr)

	if err := enc.Encode(&header{Frames: 1, Width: 2, Height: 2}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}
	// A 2x2 header earns 8 bytes of pixels plus 64 KiB of wire budget;
	// stream a frame whose 2-byte pixels come to twice that.
	huge := dataset.NewImage(256, 256)
	for i := range huge.Pix {
		huge.Pix[i] = 60000
	}
	if err := enc.Encode(huge); err != nil {
		// The server may cut the connection while the frame is still
		// being written; that is the enforcement working.
		return
	}
	if err := dec.Decode(&resp); err == nil {
		t.Fatalf("over-budget payload should drop the connection, got %v", resp.Status)
	}
}

// TestStalledClientReleasesSlot proves an admitted client that stops
// streaming frames is disconnected by the receive timeout and its
// admission slot freed.
func TestStalledClientReleasesSlot(t *testing.T) {
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb, func(c *Config) { c.ReceiveTimeout = 30 * time.Millisecond })
	_, enc, dec := rawConn(t, addr)

	if err := enc.Encode(&header{Frames: 2, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}
	if srv.Inflight() != 1 {
		t.Fatalf("inflight = %d after admission", srv.Inflight())
	}
	// Stream nothing: the per-frame read deadline must retire the slot.
	deadline := time.After(5 * time.Second)
	for srv.Inflight() != 0 {
		select {
		case <-deadline:
			t.Fatal("stalled client never released its admission slot")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestShutdownDeadlineUnblocksStalledReceive proves the drain deadline is
// enforced even when a handler is parked in a network read: Shutdown
// closes the connection instead of waiting on it forever.
func TestShutdownDeadlineUnblocksStalledReceive(t *testing.T) {
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb) // default (long) receive timeout
	_, enc, dec := rawConn(t, addr)

	if err := enc.Encode(&header{Frames: 2, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("forced drain should report the deadline, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown wedged on a stalled admitted client")
	}
	if srv.Inflight() != 0 {
		t.Fatalf("inflight = %d after forced drain", srv.Inflight())
	}
}

// TestClientEntriesPruned proves completed clients do not accumulate in
// the quota map and a returning client does not burn a second gauge-cap
// slot.
func TestClientEntriesPruned(t *testing.T) {
	reg := telemetry.NewRegistry()
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb, WithTelemetry(reg))
	c := dialClient(t, addr, WithClientID("pruned"))

	stack := testStack(2, 8, 8)
	for i := 0; i < 2; i++ {
		if _, err := c.Process(context.Background(), stack); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		// The server releases the quota slot in handle's deferred function,
		// after the response bytes are written, so the client can return
		// first.
		waitFor(func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return len(srv.clients) == 0
		})
		srv.mu.Lock()
		entries, minted := len(srv.clients), len(srv.minted)
		srv.mu.Unlock()
		if entries != 0 {
			t.Fatalf("after request %d: %d quota entries linger", i, entries)
		}
		if minted != 1 {
			t.Fatalf("after request %d: %d gauges minted for one client", i, minted)
		}
	}
	if got := reg.Snapshot().Gauges["serve_client_pruned_inflight"]; got != 0 {
		t.Fatalf("per-client gauge = %g after completion", got)
	}
}

func TestRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	fb := &fakeBackend{}
	srv, addr := startServer(t, fb, WithTelemetry(reg))
	c := dialClient(t, addr, WithClientID("test-client"))

	stack := testStack(4, 16, 8)
	res, err := c.Process(context.Background(), stack)
	if err != nil {
		t.Fatal(err)
	}
	want := stack.Frames[0]
	if res.Image.Width != 16 || res.Image.Height != 8 {
		t.Fatalf("result dims %dx%d", res.Image.Width, res.Image.Height)
	}
	for i := range want.Pix {
		if res.Image.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
	dec, err := rice.Decode(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if dec[i] != want.Pix[i] {
			t.Fatalf("compressed payload decodes wrong at %d", i)
		}
	}

	// handle's deferred functions observe the latency and release the
	// slot after the response bytes are written; release runs last.
	waitFor(func() bool { return srv.Inflight() == 0 })
	snap := reg.Snapshot()
	if got := snap.Counters["serve_requests_total"]; got != 1 {
		t.Fatalf("serve_requests_total = %d", got)
	}
	if got := snap.Counters["serve_requests_accepted_total"]; got != 1 {
		t.Fatalf("serve_requests_accepted_total = %d", got)
	}
	if got := snap.Gauges["serve_requests_inflight"]; got != 0 {
		t.Fatalf("inflight gauge = %g after completion", got)
	}
	if got := snap.Gauges["serve_client_test-client_inflight"]; got != 0 {
		t.Fatalf("per-client gauge = %g after completion", got)
	}
	if snap.HistogramStates["serve_request"].Count != 1 {
		t.Fatal("request latency not recorded")
	}
	if srv.Inflight() != 0 {
		t.Fatalf("server inflight = %d", srv.Inflight())
	}
}

// TestSequentialRequestsReuseConnection proves the connection stays in
// sync across requests.
func TestSequentialRequestsReuseConnection(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	c := dialClient(t, addr)
	stack := testStack(2, 8, 8)
	for i := 0; i < 3; i++ {
		if _, err := c.Process(context.Background(), stack); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := fb.submits.Load(); got != 3 {
		t.Fatalf("backend saw %d submissions", got)
	}
}

func TestShedOverInflightLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, started: make(chan struct{}, 8)}
	_, addr := startServer(t, fb,
		WithTelemetry(reg), func(c *Config) { c.MaxInflight, c.RetryAfter = 1, 5*time.Millisecond })

	occupier := dialClient(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := occupier.Process(context.Background(), testStack(2, 8, 8))
		done <- err
	}()
	<-fb.started // the first request is admitted and inflight

	// A second client with a single attempt observes the shed directly.
	second := dialClient(t, addr, WithRetryPolicy(1, time.Millisecond, time.Millisecond))
	_, err := second.Process(context.Background(), testStack(2, 8, 8))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got != 1 {
		t.Fatalf("serve_shed_total = %d", got)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("occupier failed: %v", err)
	}
}

func TestPerClientQuota(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, started: make(chan struct{}, 8)}
	_, addr := startServer(t, fb,
		WithTelemetry(reg), func(c *Config) { c.MaxInflight, c.PerClientQuota = 4, 1 })

	greedy1 := dialClient(t, addr, WithClientID("greedy"))
	done := make(chan error, 1)
	go func() {
		_, err := greedy1.Process(context.Background(), testStack(2, 8, 8))
		done <- err
	}()
	<-fb.started

	// Same client ID over a second connection: over quota, shed.
	greedy2 := dialClient(t, addr, WithClientID("greedy"),
		WithRetryPolicy(1, time.Millisecond, time.Millisecond))
	if _, err := greedy2.Process(context.Background(), testStack(2, 8, 8)); !errors.Is(err, ErrShed) {
		t.Fatalf("same-client overflow: want ErrShed, got %v", err)
	}

	// A different client still fits under the global limit.
	other := dialClient(t, addr, WithClientID("other"))
	otherDone := make(chan error, 1)
	go func() {
		_, err := other.Process(context.Background(), testStack(2, 8, 8))
		otherDone <- err
	}()
	<-fb.started

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("first greedy request failed: %v", err)
	}
	if err := <-otherDone; err != nil {
		t.Fatalf("other client failed: %v", err)
	}
	if got := reg.Snapshot().Counters["serve_shed_total"]; got != 1 {
		t.Fatalf("serve_shed_total = %d", got)
	}
}

// TestShedRetrySucceeds drives the full shed -> backoff -> retry ->
// success loop through the public client.
func TestShedRetrySucceeds(t *testing.T) {
	reg := telemetry.NewRegistry()
	creg := telemetry.NewRegistry()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, started: make(chan struct{}, 8)}
	_, addr := startServer(t, fb,
		WithTelemetry(reg), func(c *Config) { c.MaxInflight, c.RetryAfter = 1, time.Millisecond })

	occupier := dialClient(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := occupier.Process(context.Background(), testStack(2, 8, 8))
		done <- err
	}()
	<-fb.started

	retrier := dialClient(t, addr,
		WithTelemetry(creg),
		WithRetryPolicy(50, time.Millisecond, 5*time.Millisecond))
	retried := make(chan error, 1)
	go func() {
		_, err := retrier.Process(context.Background(), testStack(2, 8, 8))
		retried <- err
	}()

	// Wait until the retrier has been shed at least once, then free the
	// occupier so a later retry is admitted.
	deadline := time.After(5 * time.Second)
	for creg.Snapshot().Counters["client_sheds_total"] == 0 {
		select {
		case <-deadline:
			t.Fatal("retrier never observed a shed")
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	if err := <-retried; err != nil {
		t.Fatalf("retrier should eventually succeed, got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := creg.Snapshot()
	if snap.Counters["client_retries_total"] == 0 {
		t.Fatal("client retry counter not bumped")
	}
	if reg.Snapshot().Counters["serve_shed_total"] == 0 {
		t.Fatal("server shed counter not bumped")
	}
}

func TestBackendErrorIsTerminal(t *testing.T) {
	reg := telemetry.NewRegistry()
	fb := &fakeBackend{fail: errors.New("pipeline exploded")}
	_, addr := startServer(t, fb, WithTelemetry(reg))
	c := dialClient(t, addr, WithRetryPolicy(5, time.Millisecond, time.Millisecond))
	_, err := c.Process(context.Background(), testStack(2, 8, 8))
	if err == nil || !strings.Contains(err.Error(), "pipeline exploded") {
		t.Fatalf("want remote error, got %v", err)
	}
	// Terminal errors must not burn retries.
	if got := fb.submits.Load(); got != 1 {
		t.Fatalf("backend saw %d submissions for a terminal failure", got)
	}
	if got := reg.Snapshot().Counters["serve_errors_total"]; got != 1 {
		t.Fatalf("serve_errors_total = %d", got)
	}
}

// TestInvalidHeaderAnsweredInline proves a bad header is rejected before
// any payload moves and the connection stays usable.
func TestInvalidHeaderAnsweredInline(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	if err := enc.Encode(&header{Frames: 0, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || resp.Err == "" {
		t.Fatalf("want StatusError with message, got %v %q", resp.Status, resp.Err)
	}

	// The same connection still serves a valid request.
	stack := testStack(2, 8, 8)
	if err := enc.Encode(&header{Frames: 2, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}
	for _, f := range stack.Frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("want OK, got %v (%s)", resp.Status, resp.Err)
	}
}

// TestFrameMismatchRejected proves a frame that contradicts its header is
// answered with StatusError.
func TestFrameMismatchRejected(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&header{Frames: 1, Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}
	if err := enc.Encode(dataset.NewImage(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("want StatusError, got %v", resp.Status)
	}
}

// TestClientRetriesTransportFault drops the first connection mid-exchange
// and proves the client redials and completes on the second.
func TestClientRetriesTransportFault(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: accept and slam shut on the first byte.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1)
		conn.Read(buf) //nolint:errcheck
		conn.Close()
		// Second connection: speak the protocol properly.
		conn, err = ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := gob.NewDecoder(conn)
		enc := gob.NewEncoder(conn)
		var hdr header
		if dec.Decode(&hdr) != nil {
			return
		}
		if enc.Encode(&response{Status: StatusAccepted}) != nil {
			return
		}
		img := dataset.NewImage(hdr.Width, hdr.Height)
		for i := 0; i < hdr.Frames; i++ {
			var f dataset.Image
			if dec.Decode(&f) != nil {
				return
			}
		}
		enc.Encode(&response{Status: StatusOK, Result: &Result{Image: img}}) //nolint:errcheck
	}()

	c, err := DialClient(ln.Addr().String(),
		WithRetryPolicy(4, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Process(context.Background(), testStack(2, 8, 8))
	if err != nil {
		t.Fatalf("client should survive a dropped connection, got %v", err)
	}
	if res.Image == nil {
		t.Fatal("missing image")
	}
}

// rawPixels puts its bytes on the wire as a pixel payload verbatim, odd
// lengths included, as a broken peer might; rawImage carries it in
// dataset.Image's gob shape.
type rawPixels []byte

func (r rawPixels) GobEncode() ([]byte, error) { return r, nil }

type rawImage struct {
	Width, Height int
	Pix           rawPixels
}

// TestOddPixelPayloadDropsConnection proves a frame whose pixel payload is
// not a whole number of 16-bit pixels fails the decode and drops the
// connection without a response.
func TestOddPixelPayloadDropsConnection(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	_, enc, dec := rawConn(t, addr)
	if err := enc.Encode(&header{Frames: 1, Width: 1, Height: 2}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusAccepted {
		t.Fatalf("want accepted, got %v", resp.Status)
	}
	if err := enc.Encode(&rawImage{Width: 1, Height: 2, Pix: rawPixels{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err == nil {
		t.Fatalf("odd pixel payload should drop the connection, got %v", resp.Status)
	}
	if fb.submits.Load() != 0 {
		t.Fatal("a frame that failed to decode reached the backend")
	}
}

// TestClientRejectsMisfitResult serves a 2x2 request from a raw server
// that answers with a result of another size. The client must fail the
// attempt instead of returning it: a 1024x1024 image overruns the read
// budget the request earns, and the smaller misfits arrive within it but
// do not match.
func TestClientRejectsMisfitResult(t *testing.T) {
	for name, res := range map[string]*Result{
		"1024x1024 image": {Image: dataset.NewImage(1024, 1024)},
		"2x1 image":       {Image: dataset.NewImage(2, 1)},
		"short pixels":    {Image: &dataset.Image{Width: 2, Height: 2, Pix: make(dataset.Pixels, 3)}},
		"no image":        {Compressed: []byte{1}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
			var hdr header
			if dec.Decode(&hdr) != nil || enc.Encode(&response{Status: StatusAccepted}) != nil {
				return
			}
			for i := 0; i < hdr.Frames; i++ {
				var f dataset.Image
				if dec.Decode(&f) != nil {
					return
				}
			}
			enc.Encode(&response{Status: StatusOK, Result: res}) //nolint:errcheck // the client may hang up mid-result
		}()
		c, err := DialClient(ln.Addr().String(), WithRetryPolicy(1, time.Millisecond, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Process(context.Background(), testStack(2, 2, 2))
		c.Close()
		ln.Close()
		if err == nil {
			t.Errorf("%s: client returned the result for a 2x2 request", name)
		}
	}
}

// TestResultBudgetCoversRiceWorstCase checks the client's result budget
// against what the Rice coder actually emits on incompressible pixels,
// where every block escapes to verbatim.
func TestResultBudgetCoversRiceWorstCase(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{1, 31, 32, 33, 1000, 128 * 128} {
		px := make([]uint16, n)
		for i := range px {
			px[i] = uint16(src.Uint64())
		}
		worst := int64(len(rice.Encode(px)))
		if room := resultBudget(n, 1) - 2*int64(n) - maxHeaderBytes; room < worst {
			t.Errorf("%d samples: budget leaves %d bytes for a %d-byte Rice payload", n, room, worst)
		}
	}
}

func TestBatcherCoalescesByCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	fb := &fakeBackend{}
	b := newBatcher(fb, 3, time.Hour, reg, "serve") // window effectively never fires
	var outs []<-chan *cluster.Result
	for i := 0; i < 3; i++ {
		outs = append(outs, b.submit(context.Background(), testStack(1, 4, 4)))
	}
	for i, ch := range outs {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("item %d: %v", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d never flushed", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve_batches_total"]; got != 1 {
		t.Fatalf("serve_batches_total = %d, want one coalesced flush", got)
	}
	if got := snap.Gauges["serve_batch_size"]; got != 3 {
		t.Fatalf("serve_batch_size = %g", got)
	}
}

func TestBatcherFlushesOnWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	fb := &fakeBackend{}
	b := newBatcher(fb, 100, 2*time.Millisecond, reg, "serve")
	ch := b.submit(context.Background(), testStack(1, 4, 4))
	select {
	case res := <-ch:
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window flush never fired")
	}
	if got := reg.Snapshot().Counters["serve_batches_total"]; got != 1 {
		t.Fatalf("serve_batches_total = %d", got)
	}
}

func TestBatcherDrainBypassesWindow(t *testing.T) {
	fb := &fakeBackend{}
	b := newBatcher(fb, 100, time.Hour, nil, "serve")
	ch := b.submit(context.Background(), testStack(1, 4, 4))
	b.drain()
	select {
	case res := <-ch:
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not flush the pending batch")
	}
	// Post-drain submissions bypass the window entirely.
	select {
	case res := <-b.submit(context.Background(), testStack(1, 4, 4)):
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain submit did not pass through")
	}
}

// TestBatcherSubmitDrainRaceFlushes races submissions against drain with
// an hour-long window: any item the race parks on a fresh timer would
// only deliver after that window, so every channel must produce promptly.
func TestBatcherSubmitDrainRaceFlushes(t *testing.T) {
	fb := &fakeBackend{}
	b := newBatcher(fb, 1000, time.Hour, nil, "serve")
	const n = 64
	outs := make([]<-chan *cluster.Result, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			outs[i] = b.submit(context.Background(), testStack(1, 4, 4))
		}(i)
	}
	close(start)
	b.drain()
	wg.Wait()
	for i, ch := range outs {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("item %d: %v", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d parked past drain", i)
		}
	}
}

func TestSanitizeClientID(t *testing.T) {
	conn := fakeAddrConn{}
	for _, tc := range []struct{ in, want string }{
		{"loadgen-7", "loadgen-7"},
		{"weird id!", "weird_id_"},
		{strings.Repeat("x", 50), strings.Repeat("x", 32)},
		{"", "10_0_0_9"},
	} {
		if got := sanitizeClientID(tc.in, conn); got != tc.want {
			t.Fatalf("sanitizeClientID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// fakeAddrConn satisfies just enough of net.Conn for sanitizeClientID.
type fakeAddrConn struct{ net.Conn }

func (fakeAddrConn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(10, 0, 0, 9), Port: 1234}
}
