package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"spaceproc"
)

// notifyWriter accumulates output and signals once per line written.
type notifyWriter struct {
	mu    sync.Mutex
	sb    strings.Builder
	lines chan string
}

func newNotifyWriter() *notifyWriter {
	return &notifyWriter{lines: make(chan string, 64)}
}

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.sb.Write(p)
	w.mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		select {
		case w.lines <- line:
		default:
		}
	}
	return len(p), nil
}

func (w *notifyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// await returns the first line containing substr, or fails the test.
func (w *notifyWriter) await(t *testing.T, substr string) string {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line := <-w.lines:
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("never saw %q in output:\n%s", substr, w.String())
		}
	}
}

// startDaemon boots one in-process fleet member.
func startDaemon(t *testing.T) string {
	t.Helper()
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for i := 0; i < 2; i++ {
		lw, err := spaceproc.NewLocalWorker(nil, spaceproc.DefaultCRConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(lw)
	}
	daemon, err := spaceproc.NewDaemonWith(pool, spaceproc.DefaultServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(daemon.Close)
	addr, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestVersionFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-version"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "spaceproc-router ") {
		t.Fatalf("version output %q", sb.String())
	}
}

func TestBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Fatal("want flag error")
	}
}

func TestRequiresNodes(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Fatal("want error without -nodes")
	}
}

func TestParseNodes(t *testing.T) {
	fleet, err := parseNodes("10.0.0.1:9035=10.0.0.1:9100, 10.0.0.2:9035 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 2 {
		t.Fatalf("parsed %d nodes, want 2", len(fleet))
	}
	if fleet[0].Addr != "10.0.0.1:9035" || fleet[0].Health != "10.0.0.1:9100" {
		t.Fatalf("node 0 = %+v", fleet[0])
	}
	if fleet[1].Addr != "10.0.0.2:9035" || fleet[1].Health != "" {
		t.Fatalf("node 1 = %+v", fleet[1])
	}
	for _, bad := range []string{"", " , ", "=h:1", "a:1="} {
		if _, err := parseNodes(bad); err == nil {
			t.Fatalf("parseNodes(%q) should error", bad)
		}
	}
}

// TestRouteAndDrain boots the router over an in-process daemon, round-
// trips one baseline through it, cancels the root context (the SIGTERM
// path), and proves run exits through the drain.
func TestRouteAndDrain(t *testing.T) {
	daddr := startDaemon(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newNotifyWriter()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-metrics", "127.0.0.1:0",
			"-nodes", daddr,
			"-probe-interval", "20ms",
			"-drain-timeout", "10s",
		}, out)
	}()

	line := out.await(t, "routing on ")
	raddr := strings.TrimSpace(strings.TrimPrefix(line, "routing on "))
	out.await(t, "fleet of 1 node(s)")
	out.await(t, "metrics on http://")

	client, err := spaceproc.Dial(raddr, spaceproc.WithServeClientID("router-test"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stack := spaceproc.NewStack(4, 32, 32)
	for _, f := range stack.Frames {
		for i := range f.Pix {
			f.Pix[i] = uint16(500 + i%11)
		}
	}
	res, err := client.Process(context.Background(), stack)
	if err != nil {
		t.Fatal(err)
	}
	if res.Image == nil || len(res.Compressed) == 0 {
		t.Fatalf("incomplete result: %+v", res)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run exited with %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("router never drained:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("missing drain confirmation:\n%s", out.String())
	}
}
