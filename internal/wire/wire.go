// Package wire is the one gob-over-TCP layer under both network
// transports of the reproduction: the worker port that stands in for the
// Figure 1 Myrinet link (cluster.Server and RemoteWorker) and the serve
// port (serve.Server, Client and the fleet's forwarders). The bytes on
// the wire are a plain gob stream; this package owns the policy around
// it: per-value byte budgets and receive deadlines on the serving side,
// context-bound exchanges and bounded-backoff dials on the calling side,
// and a listener that tracks its connections for shutdown.
package wire

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

const (
	// ReceiveTimeout is the default bound on how long one received value
	// may take to arrive once its first byte is on the wire. Idle waits
	// between values (Wait) are not bounded.
	ReceiveTimeout = 30 * time.Second
	// DefaultDialAttempts and DefaultDialBackoff bound a reconnect: this
	// many passes over the candidates, pausing DefaultDialBackoff
	// (doubling) between passes.
	DefaultDialAttempts = 3
	DefaultDialBackoff  = 20 * time.Millisecond
	// NoLimit is the Recv budget that reads without a byte cap.
	NoLimit = -1
)

// errBudget is returned when a value needs more bytes than its budget.
var errBudget = errors.New("wire: byte budget exhausted")

// Conn is one gob stream over a TCP connection. It is not safe for
// concurrent use; each transport serializes exchanges on a connection.
type Conn struct {
	nc  net.Conn
	r   budgetReader
	enc *gob.Encoder
	dec *gob.Decoder
}

// newConn wraps an established connection.
func newConn(nc net.Conn) *Conn {
	c := &Conn{nc: nc, r: budgetReader{nc: nc, n: NoLimit}, enc: gob.NewEncoder(nc)}
	c.dec = gob.NewDecoder(&c.r)
	return c
}

// budgetReader is the decoder's view of the socket. Every byte it hands
// out is charged to the current budget. It implements io.ByteReader, so
// gob reads exactly the bytes of each message and buffers nothing ahead:
// a budget or deadline then applies to one value and nothing after it.
type budgetReader struct {
	nc     net.Conn
	n      int64 // bytes left in the budget; negative for no limit
	peeked bool  // b holds the first byte of the next value (see Wait)
	b      [1]byte
}

func (r *budgetReader) Read(p []byte) (n int, err error) {
	switch {
	case len(p) == 0:
		return 0, nil
	case r.n == 0:
		return 0, errBudget
	case r.n > 0 && int64(len(p)) > r.n:
		p = p[:r.n]
	}
	if r.peeked {
		p[0], r.peeked, n = r.b[0], false, 1
	} else {
		n, err = r.nc.Read(p)
	}
	if r.n > 0 {
		r.n -= int64(n)
	}
	return n, err
}

func (r *budgetReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}

// Wait blocks, with no deadline, until the next value starts to arrive:
// a peer may idle between exchanges for as long as it likes. The byte it
// reads is charged to the following Recv.
func (c *Conn) Wait() error {
	if c.r.peeked {
		return nil
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if _, err := io.ReadFull(c.nc, c.r.b[:]); err != nil {
		return err
	}
	c.r.peeked = true
	return nil
}

// Recv decodes the next value into v. It may consume at most budget bytes
// (NoLimit for no cap) and, when timeout is positive, must finish within
// timeout; with a zero timeout the socket's current deadline applies (see
// Bind). A failed Recv leaves the stream out of sync, so the caller
// closes the connection.
func (c *Conn) Recv(v any, budget int64, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	c.r.n = budget
	return c.dec.Decode(v)
}

// Send encodes v onto the stream.
func (c *Conn) Send(v any) error { return c.enc.Encode(v) }

// Bind ties the socket to ctx for one exchange: ctx's deadline (or none)
// becomes the socket's, and cancelling ctx expires the socket so a
// blocked Send or Recv returns. Call the returned stop when the exchange
// ends.
func (c *Conn) Bind(ctx context.Context) (stop func() bool) {
	deadline, _ := ctx.Deadline()
	c.nc.SetDeadline(deadline) //nolint:errcheck // a dead socket fails the exchange itself
	return context.AfterFunc(ctx, func() {
		c.nc.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // as above
	})
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Dialer connects with bounded exponential backoff.
type Dialer struct {
	// Attempts is the number of passes over the candidates (at least
	// one).
	Attempts int
	// Backoff is the pause before the second pass, doubling after each
	// pass; zero or less selects DefaultDialBackoff.
	Backoff time.Duration
	// Note, when set, sees the outcome of every dial.
	Note func(addr string, err error)
}

// Dial connects to the first reachable address, walking candidates() in
// order on each pass. It returns the connection and the address it
// reached.
func (d Dialer) Dial(ctx context.Context, candidates func() []string) (*Conn, string, error) {
	attempts, backoff := max(d.Attempts, 1), d.Backoff
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	lastErr := errors.New("no address to dial")
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, "", ctx.Err()
			}
			backoff *= 2
		}
		for _, addr := range candidates() {
			var nd net.Dialer
			nc, err := nd.DialContext(ctx, "tcp", addr)
			if d.Note != nil {
				d.Note(addr, err)
			}
			if err == nil {
				return newConn(nc), addr, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	return nil, "", fmt.Errorf("wire: dial (%d attempts): %w", attempts, lastErr)
}

// Listener accepts TCP connections and serves each on its own goroutine,
// tracking them so a shutdown can stop accepting, force-close the live
// connections, and wait for their handlers.
type Listener struct {
	ln     net.Listener
	handle func(*Conn)

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup // accept loop + handlers
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves every accepted
// connection with handle until Stop or Close; the connection closes when
// handle returns.
func Listen(addr string, handle func(*Conn)) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

func (l *Listener) accept() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			nc.Close()
			return
		}
		l.conns[nc] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.handle(newConn(nc))
			nc.Close()
			l.mu.Lock()
			delete(l.conns, nc)
			l.mu.Unlock()
		}()
	}
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Conns reports how many accepted connections are still open.
func (l *Listener) Conns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// Stop closes the listening socket; live connections keep being served.
func (l *Listener) Stop() {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	l.ln.Close()
}

// CloseConns force-closes every live connection, unblocking handlers
// parked in network reads or writes.
func (l *Listener) CloseConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for nc := range l.conns {
		nc.Close()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// accept loop and all handlers to return.
func (l *Listener) Close() {
	l.Stop()
	l.CloseConns()
	l.wg.Wait()
}
