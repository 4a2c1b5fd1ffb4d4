package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"spaceproc/internal/dataset"
)

// The worker port reads every request under the same bounds as the serve
// port: a byte budget per request and a receive deadline once a request
// has started, with unbounded idle waits between requests. These tests
// speak raw gob to it, the way a broken or hostile peer would.

// workerPort serves a LocalWorker with the given bounds and returns its
// address.
func workerPort(t *testing.T, maxRequest int64, recvTimeout time.Duration) string {
	t.Helper()
	srv := NewServer(localWorkers(t, 1, nil)[0])
	srv.maxRequest, srv.recvTimeout = maxRequest, recvTimeout
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// rawPeer is a bare gob client: its encoder writes into buf, so a test
// decides how many of each request's bytes reach the socket.
type rawPeer struct {
	conn net.Conn
	buf  bytes.Buffer
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{conn: conn, dec: gob.NewDecoder(conn)}
	p.enc = gob.NewEncoder(&p.buf)
	return p
}

// send encodes a request for tile and writes its first n bytes (all of
// them when n < 0). A write error is returned, not fatal: the server may
// already have dropped the connection, which is what these tests expect.
func (p *rawPeer) send(t *testing.T, tile dataset.Tile, n int) error {
	t.Helper()
	p.buf.Reset()
	if err := p.enc.Encode(&request{Tile: tile}); err != nil {
		t.Fatal(err)
	}
	b := p.buf.Bytes()
	if n >= 0 {
		b = b[:n]
	}
	_, err := p.conn.Write(b)
	return err
}

// roundTrip sends a whole request and requires a served result.
func (p *rawPeer) roundTrip(t *testing.T, tile dataset.Tile) {
	t.Helper()
	if err := p.send(t, tile, -1); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := p.dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || resp.Result.Index != tile.Index {
		t.Fatalf("got tile %d, error %q; want tile %d served", resp.Result.Index, resp.Err, tile.Index)
	}
}

// expectDropped requires the server to close conn without answering.
func expectDropped(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a failed set fails the read below
	var b [1]byte
	n, err := conn.Read(b[:])
	var ne net.Error
	switch {
	case n > 0:
		t.Fatal("server answered instead of dropping the connection")
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("server kept the connection open")
	}
}

// transportTiles returns an 8x8 tile (8 KiB of pixels) and a 32x32 tile
// (128 KiB of pixels) of one scene.
func transportTiles(t *testing.T) (small, big dataset.Tile) {
	t.Helper()
	sc := testScene(t, 51)
	s8, err := dataset.Fragment(sc.Observed, 8)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := dataset.Fragment(sc.Observed, 32)
	if err != nil {
		t.Fatal(err)
	}
	return s8[1], s32[2]
}

// TestWorkerPortDropsOverBudgetRequest proves the byte budget is charged
// per request: a small request is served, and a later one on the same
// connection that needs more than the budget is cut off unanswered.
func TestWorkerPortDropsOverBudgetRequest(t *testing.T) {
	small, big := transportTiles(t)
	p := dialRaw(t, workerPort(t, 32<<10, time.Minute))
	p.roundTrip(t, small)
	p.roundTrip(t, small)
	p.send(t, big, -1) //nolint:errcheck // the server may cut the write short
	expectDropped(t, p.conn)
}

// TestWorkerPortDropsStalledRequest proves a peer may idle between
// requests for longer than the receive timeout, but one that stalls
// mid-request is dropped once the timeout runs out.
func TestWorkerPortDropsStalledRequest(t *testing.T) {
	const timeout = 50 * time.Millisecond
	small, _ := transportTiles(t)
	p := dialRaw(t, workerPort(t, maxRequestBytes, timeout))
	time.Sleep(3 * timeout)
	p.roundTrip(t, small)
	time.Sleep(3 * timeout)
	p.roundTrip(t, small)
	if err := p.send(t, small, p.buf.Len()/2); err != nil {
		t.Fatal(err)
	}
	expectDropped(t, p.conn)
}

// TestWorkerPortDropsGarbage feeds the port bytes that are not a gob
// stream: the connection is dropped and the server still serves a fresh
// Dial.
func TestWorkerPortDropsGarbage(t *testing.T) {
	small, _ := transportTiles(t)
	addr := workerPort(t, 32<<10, 200*time.Millisecond)
	for seed := int64(1); seed <= 4; seed++ {
		garbage := make([]byte, 4<<10)
		rand.New(rand.NewSource(seed)).Read(garbage)
		p := dialRaw(t, addr)
		p.conn.Write(garbage) //nolint:errcheck // the server may cut the write short
		expectDropped(t, p.conn)
	}
	w, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := w.ProcessTile(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != small.Index {
		t.Fatalf("fresh Dial served tile %d, want %d", res.Index, small.Index)
	}
}

// TestWorkerPortAnswersMisshapenTile proves a tile whose frames do not
// match their own geometry is answered with an error rather than
// crashing the worker, and the connection stays in service.
func TestWorkerPortAnswersMisshapenTile(t *testing.T) {
	small, _ := transportTiles(t)
	p := dialRaw(t, workerPort(t, maxRequestBytes, time.Minute))
	for name, tile := range misshapenTiles() {
		if name == "nil frame" {
			continue // gob cannot encode a nil element; a peer sends a zero frame instead
		}
		if err := p.send(t, tile, -1); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := p.dec.Decode(&resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Err == "" {
			t.Fatalf("%s: served, want an error", name)
		}
	}
	p.roundTrip(t, small)
}

// rawPixels puts its bytes on the wire as a pixel payload verbatim, odd
// lengths included; the types below mirror request's gob shape around
// it.
type rawPixels []byte

func (r rawPixels) GobEncode() ([]byte, error) { return r, nil }

type (
	rawRequest struct{ Tile rawTile }
	rawTile    struct {
		Index int
		Stack *rawStack
	}
	rawStack struct{ Frames []*rawImage }
	rawImage struct {
		Width, Height int
		Pix           rawPixels
	}
)

// TestWorkerPortDropsOddPixelPayload proves a pixel payload that is not a
// whole number of 16-bit pixels fails the decode and drops the
// connection unanswered.
func TestWorkerPortDropsOddPixelPayload(t *testing.T) {
	small, _ := transportTiles(t)
	p := dialRaw(t, workerPort(t, maxRequestBytes, time.Minute))
	p.roundTrip(t, small)
	req := rawRequest{Tile: rawTile{Index: 1, Stack: &rawStack{Frames: []*rawImage{{Width: 1, Height: 2, Pix: rawPixels{1, 2, 3}}}}}}
	p.buf.Reset()
	if err := p.enc.Encode(&req); err != nil {
		t.Fatal(err)
	}
	p.conn.Write(p.buf.Bytes()) //nolint:errcheck // the server may cut the write short
	expectDropped(t, p.conn)
}
