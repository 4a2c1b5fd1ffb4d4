package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/dataset"
)

// sample stands in for the transports' messages: strings, ints, a plain
// slice, the pixel codec, a nested pointer, a time and a map.
type sample struct {
	Name   string
	N      int
	Pix    []uint16
	Pixels dataset.Pixels
	Next   *sample
	When   time.Time
	Tags   map[string]int
}

// rawPixels puts its bytes on the wire as a pixel payload verbatim, odd
// lengths included, as a broken peer might.
type rawPixels []byte

func (r rawPixels) GobEncode() ([]byte, error) { return r, nil }

// countingConn counts the bytes read through it.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// pipe returns a Conn over one end of an in-memory pipe, the byte count
// of that end, and the raw other end.
func pipe(t testing.TB) (*Conn, *countingConn, net.Conn) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	cc := &countingConn{Conn: a}
	return newConn(cc), cc, b
}

// encode returns the gob stream of vs from one encoder and the length of
// each value's share of it.
func encode(t *testing.T, vs ...any) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	var sizes []int64
	for _, v := range vs {
		before := buf.Len()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(buf.Len()-before))
	}
	return buf.Bytes(), sizes
}

// write feeds b to the peer in the background; closing the pipe ends it.
func write(peer net.Conn, b []byte) {
	go peer.Write(b) //nolint:errcheck // the test closes the pipe under it
}

// TestRecvBudgetIsPerValue proves each Recv may consume exactly its
// value's bytes: back-to-back values decode under budgets equal to their
// own sizes (nothing is read ahead), and a budget one byte short fails
// with errBudget without consuming more than the budget.
func TestRecvBudgetIsPerValue(t *testing.T) {
	first := sample{Name: "first", Pix: make([]uint16, 300), Tags: map[string]int{"a": 1}}
	second := sample{Name: "second", N: 7, Next: &sample{Name: "inner"}}
	stream, sizes := encode(t, &first, &second)

	c, cc, peer := pipe(t)
	write(peer, stream)
	var got sample
	if err := c.Recv(&got, sizes[0], time.Second); err != nil || got.Name != "first" {
		t.Fatalf("first value: %v %+v", err, got)
	}
	got = sample{}
	if err := c.Recv(&got, sizes[1], time.Second); err != nil || got.Name != "second" || got.Next.Name != "inner" {
		t.Fatalf("second value: %v %+v", err, got)
	}
	if n := cc.n.Load(); n != int64(len(stream)) {
		t.Fatalf("read %d bytes, stream is %d", n, len(stream))
	}

	c, cc, peer = pipe(t)
	write(peer, stream)
	if err := c.Recv(&got, sizes[0]-1, time.Second); !errors.Is(err, errBudget) {
		t.Fatalf("short budget: got %v, want errBudget", err)
	}
	if n := cc.n.Load(); n > sizes[0]-1 {
		t.Fatalf("consumed %d bytes on a budget of %d", n, sizes[0]-1)
	}
}

// TestRecvTimeoutAndWait proves a Recv with a timeout gives up on a value
// that does not arrive, while Wait has no deadline: it outlasts the
// stale deadline of the previous Recv and charges its byte to the next.
func TestRecvTimeoutAndWait(t *testing.T) {
	stream, sizes := encode(t, &sample{Name: "a"}, &sample{Name: "b"})
	c, _, peer := pipe(t)

	var got sample
	var ne net.Error
	if err := c.Recv(&got, NoLimit, 20*time.Millisecond); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Recv with nothing sent: got %v, want a timeout", err)
	}

	write(peer, stream[:sizes[0]])
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recv(&got, sizes[0], 20*time.Millisecond); err != nil || got.Name != "a" {
		t.Fatalf("first value: %v %+v", err, got)
	}
	go func() {
		time.Sleep(100 * time.Millisecond) // past the last Recv's deadline
		peer.Write(stream[sizes[0]:])      //nolint:errcheck // the test closes the pipe under it
	}()
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait honored a stale deadline: %v", err)
	}
	if err := c.Wait(); err != nil { // a second Wait keeps the peeked byte
		t.Fatal(err)
	}
	if err := c.Recv(&got, sizes[1], time.Second); err != nil || got.Name != "b" {
		t.Fatalf("value after Wait: %v %+v", err, got)
	}
}

// TestBindCancelAndDeadline proves Bind unblocks a pending Recv both when
// the context is cancelled and when its deadline passes, and that stop
// detaches the cancellation.
func TestBindCancelAndDeadline(t *testing.T) {
	c, _, _ := pipe(t)
	ctx, cancel := context.WithCancel(context.Background())
	stop := c.Bind(ctx)
	time.AfterFunc(20*time.Millisecond, cancel)
	var got sample
	if err := c.Recv(&got, NoLimit, 0); err == nil {
		t.Fatal("Recv survived a cancelled context")
	}
	stop()

	c, _, peer := pipe(t)
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	defer c.Bind(ctx)()
	start := time.Now()
	if err := c.Recv(&got, NoLimit, 0); err == nil {
		t.Fatal("Recv outlived the context deadline")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}

	c, _, peer = pipe(t)
	ctx, cancel2 := context.WithCancel(context.Background())
	c.Bind(ctx)()
	cancel2() // after stop: must not expire the socket
	stream, _ := encode(t, &sample{Name: "kept"})
	write(peer, stream)
	if err := c.Recv(&got, NoLimit, time.Second); err != nil || got.Name != "kept" {
		t.Fatalf("Recv after stop: %v %+v", err, got)
	}
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialWalksCandidatesWithBackoff proves Dial tries the candidates in
// order, reports every outcome to Note, stops at the first that answers,
// and between passes over dead candidates backs off with doubling.
func TestDialWalksCandidatesWithBackoff(t *testing.T) {
	l, err := Listen("127.0.0.1:0", func(*Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dead, live := deadAddr(t), l.Addr()

	var notes []string
	d := Dialer{Attempts: 3, Backoff: time.Millisecond, Note: func(addr string, err error) {
		notes = append(notes, addr+":"+map[bool]string{true: "ok", false: "fail"}[err == nil])
	}}
	conn, addr, err := d.Dial(context.Background(), func() []string { return []string{dead, live, dead} })
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if addr != live || len(notes) != 2 || notes[0] != dead+":fail" || notes[1] != live+":ok" {
		t.Fatalf("reached %s with notes %v", addr, notes)
	}

	passes := 0
	d = Dialer{Attempts: 3, Backoff: 20 * time.Millisecond}
	start := time.Now()
	_, _, err = d.Dial(context.Background(), func() []string { passes++; return []string{dead} })
	if err == nil {
		t.Fatal("dial of a dead address succeeded")
	}
	if elapsed := time.Since(start); passes != 3 || elapsed < 60*time.Millisecond {
		t.Fatalf("%d passes in %v; want 3 passes and at least 20+40 ms of backoff", passes, elapsed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	d = Dialer{Attempts: 10, Backoff: time.Second}
	if _, _, err := d.Dial(ctx, func() []string { return []string{dead} }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial under an expiring context: got %v", err)
	}
}

// echo serves ints, answering each with its successor, until the peer
// goes away.
func echo(handlers *atomic.Int32) func(*Conn) {
	return func(c *Conn) {
		handlers.Add(1)
		defer handlers.Add(-1)
		for {
			var v int
			if c.Wait() != nil || c.Recv(&v, NoLimit, time.Second) != nil || c.Send(v+1) != nil {
				return
			}
		}
	}
}

func dialEcho(t *testing.T, addr string) *Conn {
	t.Helper()
	c, _, err := Dialer{}.Dial(context.Background(), func() []string { return []string{addr} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func exchange(c *Conn, v int) error {
	if err := c.Send(v); err != nil {
		return err
	}
	var got int
	if err := c.Recv(&got, NoLimit, time.Second); err != nil {
		return err
	}
	if got != v+1 {
		return errors.New("wrong answer")
	}
	return nil
}

// TestListenerStopCloseConnsClose walks a Listener through shutdown:
// Stop refuses new connections but keeps serving live ones, CloseConns
// drops the live ones, and Close returns only after every handler has.
func TestListenerStopCloseConnsClose(t *testing.T) {
	var handlers atomic.Int32
	l, err := Listen("127.0.0.1:0", echo(&handlers))
	if err != nil {
		t.Fatal(err)
	}
	a, b := dialEcho(t, l.Addr()), dialEcho(t, l.Addr())
	for _, c := range []*Conn{a, b} {
		if err := exchange(c, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Conns(); n != 2 {
		t.Fatalf("tracking %d connections, want 2", n)
	}

	l.Stop()
	if nc, err := net.DialTimeout("tcp", l.Addr(), time.Second); err == nil {
		nc.Close()
		t.Fatal("stopped listener accepted a connection")
	}
	if err := exchange(a, 2); err != nil {
		t.Fatalf("live connection dropped by Stop: %v", err)
	}

	l.CloseConns()
	if err := exchange(b, 3); err == nil {
		t.Fatal("connection survived CloseConns")
	}
	l.Close()
	if n := handlers.Load(); n != 0 || l.Conns() != 0 {
		t.Fatalf("Close returned with %d handlers and %d connections live", n, l.Conns())
	}

	// Close alone unblocks handlers parked in Wait.
	l, err = Listen("127.0.0.1:0", echo(&handlers))
	if err != nil {
		t.Fatal(err)
	}
	if err := exchange(dialEcho(t, l.Addr()), 4); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if n := handlers.Load(); n != 0 {
		t.Fatalf("Close returned with %d handlers live", n)
	}
}

// FuzzRecv feeds arbitrary bytes and a budget to Recv: it must never
// panic and never consume more than the budget.
func FuzzRecv(f *testing.F) {
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(&sample{Name: "seed", N: -3, Pix: []uint16{1, 60000}, //nolint:errcheck // a bytes.Buffer cannot fail
		Pixels: dataset.Pixels{7, 0xff00, 60000},
		Next:   &sample{Tags: map[string]int{"x": 2}}, When: time.Unix(1e9, 0)})
	f.Add(buf.Bytes(), int64(buf.Len()))
	f.Add(buf.Bytes(), int64(buf.Len()/2))
	var odd bytes.Buffer
	gob.NewEncoder(&odd).Encode(&struct { //nolint:errcheck // as above
		Name   string
		Pixels rawPixels
	}{"odd", rawPixels{1, 2, 3}})
	f.Add(odd.Bytes(), int64(odd.Len()))
	f.Add([]byte{0xff, 0xff, 0xff}, int64(64))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"), int64(1<<10))
	f.Fuzz(func(t *testing.T, data []byte, budget int64) {
		budget = int64(uint64(budget) % (1 << 20))
		c, cc, peer := pipe(t)
		go func() {
			peer.Write(data) //nolint:errcheck // the pipe closes under it
			peer.Close()
		}()
		var got sample
		c.Recv(&got, budget, time.Second) //nolint:errcheck // any outcome but a panic is fine
		if n := cc.n.Load(); n > budget {
			t.Fatalf("consumed %d bytes on a budget of %d", n, budget)
		}
	})
}
