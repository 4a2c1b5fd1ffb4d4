package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/crreject"
	"spaceproc/internal/telemetry"
)

// The trace tests prove the observability acceptance criterion: one
// request through client → router → daemon → pool produces ONE trace
// whose spans cross all three process boundaries (three separate
// registries here, standing in for three processes) and cover every
// serve-tier stage.

// stagesByTraceID collects stage names recorded for trace id t in tr.
func stagesByTraceID(tr *telemetry.Tracer, id uint64) map[string][]telemetry.TraceEvent {
	out := map[string][]telemetry.TraceEvent{}
	for _, ev := range tr.Events() {
		if ev.TraceID == id {
			out[ev.Stage] = append(out[ev.Stage], ev)
		}
	}
	return out
}

// waitFor polls cond until it holds, giving up after a bounded wait so a
// condition that never holds still fails the caller's assertions. Server
// work deferred past the response write (span ends, quota release) can
// land after the client has returned.
func waitFor(cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func TestE2ETraceCrossesClientRouterDaemon(t *testing.T) {
	// Daemon "process": a server over a real cluster.Pool so the trace
	// bottoms out in a pool-process (run) span.
	daemonReg := telemetry.NewRegistry()
	daemonReg.Tracer().SetProc("daemon")
	pool, err := cluster.NewPool(cluster.WithPoolTileSize(32), cluster.WithPoolTelemetry(daemonReg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	lw, err := cluster.NewLocalWorker(nil, crDefault())
	if err != nil {
		t.Fatal(err)
	}
	pool.AddWorker(lw)
	_, daemonAddr := startServer(t, pool, WithTelemetry(daemonReg))

	// Router "process": the same transport over a Fleet of one.
	routerReg := telemetry.NewRegistry()
	routerReg.Tracer().SetProc("router")
	rcfg := DefaultConfig()
	rcfg.Fleet = []Node{{Addr: daemonAddr}}
	rcfg.Telemetry = routerReg
	_, routerAddr := startRouter(t, rcfg)

	// Client "process".
	clientReg := telemetry.NewRegistry()
	clientReg.Tracer().SetProc("client")
	cl := dialClient(t, routerAddr, WithTelemetry(clientReg), WithClientID("trace-e2e"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Process(ctx, testStack(3, 64, 64)); err != nil {
		t.Fatalf("Process: %v", err)
	}

	// The client minted exactly one root.
	var rootID uint64
	for _, ev := range clientReg.Tracer().Events() {
		if ev.Stage == StageClientRequest {
			if rootID != 0 {
				t.Fatalf("more than one client_request root recorded")
			}
			rootID = ev.TraceID
		}
	}
	if rootID == 0 {
		t.Fatal("no client_request span recorded on the client")
	}

	// Server spans end in handle's deferred function, after the response
	// bytes are written, so the client can return before the router and
	// daemon record serve_request and respond.
	waitFor(func() bool {
		r, d := stagesByTraceID(routerReg.Tracer(), rootID), stagesByTraceID(daemonReg.Tracer(), rootID)
		return len(r[StageServeRequest]) > 0 && len(r[StageRespond]) > 0 && len(d[StageServeRequest]) > 0
	})

	clientStages := stagesByTraceID(clientReg.Tracer(), rootID)
	routerStages := stagesByTraceID(routerReg.Tracer(), rootID)
	daemonStages := stagesByTraceID(daemonReg.Tracer(), rootID)

	for _, want := range []struct {
		proc   string
		stages map[string][]telemetry.TraceEvent
		stage  string
	}{
		{"client", clientStages, StageClientRequest},
		{"client", clientStages, StageClientAttempt},
		{"router", routerStages, StageServeRequest},
		{"router", routerStages, StageAdmission},
		{"router", routerStages, StageReceive},
		{"router", routerStages, StageQueueWait},
		{"router", routerStages, StageBatch},
		{"router", routerStages, StageForward},
		{"router", routerStages, StageRespond},
		{"daemon", daemonStages, StageServeRequest},
		{"daemon", daemonStages, StageAdmission},
		{"daemon", daemonStages, StageQueueWait},
		{"daemon", daemonStages, StageBatch},
		{"daemon", daemonStages, cluster.StageRun},
	} {
		if len(want.stages[want.stage]) == 0 {
			t.Errorf("trace %016x missing %s span on the %s", rootID, want.stage, want.proc)
		}
	}
	if t.Failed() {
		t.Fatalf("client stages: %v\nrouter stages: %v\ndaemon stages: %v",
			keys(clientStages), keys(routerStages), keys(daemonStages))
	}

	// The tree stitches across the boundaries: the router's serve_request
	// parents under the client's attempt, and the daemon's serve_request
	// parents under one of the router's forward spans.
	attempt := clientStages[StageClientAttempt][0]
	if got := routerStages[StageServeRequest][0].ParentID; got != attempt.SpanID {
		t.Errorf("router serve_request parent = %016x; want client attempt %016x", got, attempt.SpanID)
	}
	forwards := map[uint64]bool{}
	for _, ev := range routerStages[StageForward] {
		forwards[ev.SpanID] = true
	}
	if got := daemonStages[StageServeRequest][0].ParentID; !forwards[got] {
		t.Errorf("daemon serve_request parent = %016x; not any router forward span", got)
	}

	// The Chrome export of each registry carries the trace id, so the
	// three artifacts can be cross-referenced by grep (what the shell
	// smoke test does).
	needle := fmt.Sprintf("%016x", rootID)
	for name, reg := range map[string]*telemetry.Registry{
		"client": clientReg, "router": routerReg, "daemon": daemonReg,
	} {
		var b strings.Builder
		if err := reg.Tracer().WriteChrome(&b); err != nil {
			t.Fatalf("%s WriteChrome: %v", name, err)
		}
		if !strings.Contains(b.String(), needle) {
			t.Errorf("%s Chrome export does not mention trace %s", name, needle)
		}
	}
}

// TestUntracedRequestMintsNoServerSpans locks the zero-value contract:
// a client without telemetry sends zero trace fields, and the server
// continues nothing rather than minting roots.
func TestUntracedRequestMintsNoServerSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, addr := startServer(t, &fakeBackend{}, WithTelemetry(reg))
	cl := dialClient(t, addr) // no telemetry: untraced
	if _, err := cl.Process(context.Background(), testStack(2, 8, 8)); err != nil {
		t.Fatalf("Process: %v", err)
	}
	for _, ev := range reg.Tracer().Events() {
		t.Errorf("untraced request produced server span %s/%s", ev.Stage, ev.Label)
	}
}

// TestSlowestRingRecordsServedRequests covers /debug/slowest: served
// requests land in the ring with their trace handle and batch stats.
func TestSlowestRingRecordsServedRequests(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, addr := startServer(t, &fakeBackend{}, WithTelemetry(reg))
	clReg := telemetry.NewRegistry()
	cl := dialClient(t, addr, WithTelemetry(clReg), WithClientID("slowpoke"))
	for i := 0; i < 3; i++ {
		if _, err := cl.Process(context.Background(), testStack(2, 8, 8)); err != nil {
			t.Fatalf("Process %d: %v", i, err)
		}
	}
	slow := srv.Slowest()
	if len(slow) != 3 {
		t.Fatalf("slow ring holds %d entries; want 3", len(slow))
	}
	for i, sr := range slow {
		if i > 0 && sr.Duration > slow[i-1].Duration {
			t.Errorf("ring not sorted: entry %d (%v) slower than %d (%v)", i, sr.Duration, i-1, slow[i-1].Duration)
		}
		if sr.Client != "slowpoke" || sr.Outcome != "ok" {
			t.Errorf("entry %d = %+v; want client slowpoke outcome ok", i, sr)
		}
		if sr.TraceID == "" || len(sr.TraceID) != 16 {
			t.Errorf("entry %d trace id %q; want 16 hex chars", i, sr.TraceID)
		}
		if sr.BatchSize < 1 {
			t.Errorf("entry %d batch size %d; want >= 1", i, sr.BatchSize)
		}
	}
}

// TestScrapeDepthViaParser covers the shared-parser replacement of the
// router's gauge scrape: well-formed, malformed, missing-gauge, and
// truncated-body expositions.
func TestScrapeDepthViaParser(t *testing.T) {
	f := &Fleet{}
	cases := []struct {
		name      string
		body      string
		status    int
		wantDepth int
		wantOK    bool
	}{
		{"well-formed", "uptime 1s\ngauge serve_requests_inflight 7\ncounter x 1\n", 200, 7, true},
		{"gauge amid garbage", "??\ngauge serve_requests_inflight 3\nbroken line here\n", 200, 3, true},
		{"malformed gauge value", "gauge serve_requests_inflight seven\n", 200, 0, false},
		{"missing gauge", "uptime 1s\ncounter serve_requests_total 9\n", 200, 0, false},
		{"empty body", "", 200, 0, false},
		{"truncated before gauge", "counter a 1\ngauge serve_requests_inf", 200, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			health := serveMetricsPage(t, tc.body, tc.status)
			depth, ok := f.scrapeDepth(httpClient(), health)
			if ok != tc.wantOK || depth != tc.wantDepth {
				t.Errorf("scrapeDepth = (%d, %v); want (%d, %v)", depth, ok, tc.wantDepth, tc.wantOK)
			}
		})
	}
	t.Run("unreachable", func(t *testing.T) {
		if depth, ok := f.scrapeDepth(httpClient(), "127.0.0.1:1"); ok || depth != 0 {
			t.Errorf("scrapeDepth on dead node = (%d, %v); want (0, false)", depth, ok)
		}
	})
}

// crDefault is the cosmic-ray config the trace pool runs with.
func crDefault() crreject.Config { return crreject.DefaultConfig() }

// serveMetricsPage serves body (with the given status) on an ephemeral
// HTTP listener and returns its host:port for scrapeDepth.
func serveMetricsPage(t *testing.T, body string, status int) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		io.WriteString(w, body) //nolint:errcheck // test server
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func httpClient() *http.Client { return &http.Client{Timeout: 2 * time.Second} }

// keys lists a map's keys for failure messages.
func keys[V any](m map[string][]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
