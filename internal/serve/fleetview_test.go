package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spaceproc/internal/telemetry"
)

// The fleet view tests prove that /fleet/metrics and /fleet/healthz are
// read from the prober's stored pages and the routing breaker: a member
// the breaker holds out of rotation reads down in both views, and
// serving them sends nothing to the members.

// sidecar serves a telemetry surface on an ephemeral port and counts the
// GETs each path receives. With metricsStatus set, /metrics answers that
// status instead of the registry's page.
type sidecar struct {
	srv *httptest.Server

	mu            sync.Mutex
	hits          map[string]int
	metricsStatus int
}

func startSidecar(t *testing.T, reg *telemetry.Registry) *sidecar {
	t.Helper()
	sc := &sidecar{hits: map[string]int{}}
	h := telemetry.Handler(reg)
	sc.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc.mu.Lock()
		sc.hits[r.URL.Path]++
		status := sc.metricsStatus
		sc.mu.Unlock()
		if r.URL.Path == "/metrics" && status != 0 {
			http.Error(w, "nope", status)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(sc.srv.Close)
	return sc
}

func (sc *sidecar) addr() string { return strings.TrimPrefix(sc.srv.URL, "http://") }

func (sc *sidecar) count(path string) int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.hits[path]
}

func (sc *sidecar) failMetrics(status int) {
	sc.mu.Lock()
	sc.metricsStatus = status
	sc.mu.Unlock()
}

// deadAddr returns a loopback address that refuses connections.
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

// viewFleet builds a fleet over nodes with no background prober, so each
// test drives probe rounds itself.
func viewFleet(t *testing.T, failures int, nodes ...Node) *Fleet {
	t.Helper()
	cfg := DefaultRouterConfig()
	cfg.Fleet = nodes
	cfg.ProbeInterval = 0
	cfg.ProbeFailures = failures
	cfg.ProbeBackoff = time.Hour // a quarantined member stays out
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// fleetHealth is the /fleet/healthz body.
type fleetHealth struct {
	Status    string
	Up, Total int
	Nodes     []struct {
		Name, Error, Scraped string
		Up                   bool
	}
}

func getHealth(t *testing.T, f *Fleet) (int, fleetHealth) {
	t.Helper()
	rec := httptest.NewRecorder()
	f.HealthHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/healthz", nil))
	var h fleetHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/fleet/healthz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, h
}

func (h fleetHealth) node(t *testing.T, name string) (up bool, errText, scraped string) {
	t.Helper()
	for _, n := range h.Nodes {
		if n.Name == name {
			return n.Up, n.Error, n.Scraped
		}
	}
	t.Fatalf("/fleet/healthz lists no node %s: %+v", name, h)
	return false, "", ""
}

// getMetrics returns the /fleet/metrics body and its merged section
// parsed back into a snapshot.
func getMetrics(t *testing.T, f *Fleet) (string, telemetry.Snapshot) {
	t.Helper()
	rec := httptest.NewRecorder()
	f.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/metrics", nil))
	body := rec.Body.String()
	_, section, ok := strings.Cut(body, "# fleet merged\n")
	if !ok {
		t.Fatalf("/fleet/metrics has no merged section:\n%s", body)
	}
	merged, err := telemetry.ParseText(strings.NewReader(section))
	if err != nil {
		t.Fatal(err)
	}
	return body, merged
}

// TestFleetViewMergesFleet serves two live members and a dead one:
// /fleet/metrics carries per-member sections and a merged histogram
// whose count is the sum of the per-member counts, and /fleet/healthz
// reports degraded, then down with 503 once no member is up.
func TestFleetViewMergesFleet(t *testing.T) {
	counts := []int{30, 70}
	var sidecars []*sidecar
	for _, n := range counts {
		reg := telemetry.NewRegistry()
		reg.Counter("serve_requests_total").Add(int64(n))
		for j := 0; j < n; j++ {
			reg.Histogram("serve_process").Observe(time.Duration(1+j) * time.Millisecond)
		}
		sidecars = append(sidecars, startSidecar(t, reg))
	}
	f := viewFleet(t, 1,
		Node{Addr: "node0:9035", Health: sidecars[0].addr()},
		Node{Addr: "node1:9035", Health: sidecars[1].addr()},
		Node{Addr: "node-dead:9035", Health: deadAddr(t)})
	f.probeRound(httpClient())

	body, merged := getMetrics(t, f)
	if v := merged.Counters["serve_requests_total"]; v != 100 {
		t.Errorf("merged counter = %d; want 100", v)
	}
	var perNodeSum int64
	for _, st := range f.Status() {
		if st.Page != nil {
			perNodeSum += st.Page.HistogramStates["serve_process"].Count
		}
	}
	if got := merged.HistogramStates["serve_process"].Count; got != perNodeSum || got != 100 {
		t.Errorf("merged histogram count = %d; want %d (= sum of per-node counts = 100)", got, perNodeSum)
	}
	for _, want := range []string{"# node node0:9035 up scraped=", "# node node1:9035 up scraped=", "# node node-dead:9035 down: "} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleet/metrics missing %q in:\n%s", want, body)
		}
	}

	code, h := getHealth(t, f)
	if code != http.StatusOK || h.Status != "degraded" || h.Up != 2 || h.Total != 3 {
		t.Errorf("degraded fleet healthz = %d %+v; want 200 degraded 2/3", code, h)
	}
	if up, errText, _ := h.node(t, "node-dead:9035"); up || errText == "" {
		t.Errorf("dead node up=%v error=%q; want down with an error", up, errText)
	}

	// All members down -> 503.
	for _, sc := range sidecars {
		sc.srv.Close()
	}
	f.probeRound(httpClient())
	if code, h := getHealth(t, f); code != http.StatusServiceUnavailable || h.Status != "down" || h.Up != 0 {
		t.Errorf("all-down fleet healthz = %d %+v; want 503 down", code, h)
	}
	if _, merged := getMetrics(t, f); len(merged.Counters) != 0 {
		t.Errorf("merged section of an all-down fleet = %v; want empty", merged.Counters)
	}
}

// TestFleetScrapeNonOKStoresNoPage: a member whose /metrics answers
// non-200 keeps no page and reports no depth; its /healthz still holds
// it up, and the views show it up without a page.
func TestFleetScrapeNonOKStoresNoPage(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("serve_requests_inflight").Set(5)
	sc := startSidecar(t, reg)
	f := viewFleet(t, 1, Node{Addr: "n:9035", Health: sc.addr()})

	f.probeRound(httpClient())
	if st := f.Status()["n:9035"]; st.Page == nil || st.Depth != 5 {
		t.Fatalf("200 page: stored page %v, depth %d; want a page and depth 5", st.Page != nil, st.Depth)
	}

	sc.failMetrics(http.StatusInternalServerError)
	f.probeRound(httpClient())
	st := f.Status()["n:9035"]
	if st.Page != nil || st.Depth != 0 {
		t.Errorf("500 page: stored page %v, depth %d; want none and 0", st.Page != nil, st.Depth)
	}
	if st.State != NodeHealthy {
		t.Errorf("member with a live /healthz is %v; want healthy", st.State)
	}
	body, merged := getMetrics(t, f)
	if !strings.Contains(body, "# node n:9035 up\n") || len(merged.Gauges) != 0 {
		t.Errorf("/fleet/metrics of a pageless member:\n%s", body)
	}
	if _, h := getHealth(t, f); h.Status != "ok" {
		t.Errorf("healthz = %+v; want ok", h)
	} else if up, _, scraped := h.node(t, "n:9035"); !up || scraped != "" {
		t.Errorf("pageless member up=%v scraped=%q; want up with no scrape time", up, scraped)
	}
}

// TestFleetViewQuarantinedMemberIsDown: a member whose serve port
// refuses forwards while its sidecar still answers is quarantined by the
// failed forwards, reads "up":false on /fleet/healthz and stays out of
// /fleet/metrics' merged section. (TestFleetViewMergesFleet's dead
// member is the case of failed probes.)
func TestFleetViewQuarantinedMemberIsDown(t *testing.T) {
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	regA.Counter("serve_requests_total").Add(30)
	regB.Counter("serve_requests_total").Add(70)
	scA, scB := startSidecar(t, regA), startSidecar(t, regB)
	addrA := deadAddr(t)
	_, addrB := startServer(t, &stampBackend{id: 202})
	f := viewFleet(t, 2, Node{Addr: addrA, Health: scA.addr()}, Node{Addr: addrB, Health: scB.addr()})
	f.probeRound(httpClient())
	if _, merged := getMetrics(t, f); merged.Counters["serve_requests_total"] != 100 {
		t.Fatalf("both members up: merged counter %d; want 100", merged.Counters["serve_requests_total"])
	}

	// Requests owned by A fail over to B; two failed forwards trip A.
	rg := expectedRing([]string{addrA, addrB})
	for i := 0; f.Status()[addrA].State == NodeHealthy; i++ {
		if i == 64 {
			t.Fatal("forward failures never quarantined the dead member")
		}
		key := fmt.Sprintf("q%d", i)
		if owner, _ := rg.Lookup(key); owner != addrA {
			continue
		}
		res := <-f.Submit(WithRoute(context.Background(), Route{Client: "q", Key: key}), testStack(2, 8, 8))
		if res.Err != nil {
			t.Fatalf("request should fail over to the live member: %v", res.Err)
		}
	}
	code, h := getHealth(t, f)
	if code != http.StatusOK || h.Status != "degraded" || h.Up != 1 {
		t.Errorf("healthz with A quarantined = %d %+v; want 200 degraded 1 up", code, h)
	}
	if up, errText, _ := h.node(t, addrA); up || errText == "" {
		t.Errorf("quarantined member up=%v error=%q; want down with the forward error", up, errText)
	}
	body, merged := getMetrics(t, f)
	if v := merged.Counters["serve_requests_total"]; v != 70 {
		t.Errorf("merged counter = %d; want 70 (the quarantined member left out)", v)
	}
	if !strings.Contains(body, "# node "+addrA+" down: ") {
		t.Errorf("/fleet/metrics does not show %s down:\n%s", addrA, body)
	}
}

// TestFleetProbeScrapesOncePerRound: each probe round sends a member one
// /healthz and at most one /metrics GET, and serving the fleet views
// sends none.
func TestFleetProbeScrapesOncePerRound(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("serve_requests_total").Add(7)
	sc := startSidecar(t, reg)
	f := viewFleet(t, 1, Node{Addr: "n:9035", Health: sc.addr()})
	for round := 1; round <= 3; round++ {
		f.probeRound(httpClient())
		if h, m := sc.count("/healthz"), sc.count("/metrics"); h != round || m != round {
			t.Fatalf("after %d rounds: %d /healthz and %d /metrics GETs; want %d of each", round, h, m, round)
		}
	}
	for i := 0; i < 5; i++ {
		body, _ := getMetrics(t, f)
		if !strings.Contains(body, "counter serve_requests_total 7\n") {
			t.Fatalf("/fleet/metrics does not serve the stored page:\n%s", body)
		}
		getHealth(t, f)
	}
	if h, m := sc.count("/healthz"), sc.count("/metrics"); h != 3 || m != 3 {
		t.Errorf("serving the views sent GETs: %d /healthz and %d /metrics; want 3 of each", h, m)
	}
}

// TestFleetViewConcurrentWithProber serves both views from several
// goroutines while the background prober replaces the stored pages, so
// the race detector sees every access to them.
func TestFleetViewConcurrentWithProber(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("serve_requests_total").Add(3)
	sc := startSidecar(t, reg)
	cfg := DefaultRouterConfig()
	cfg.Fleet = []Node{{Addr: "n:9035", Health: sc.addr()}}
	cfg.ProbeInterval = time.Millisecond
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	deadline := time.Now().Add(10 * time.Second)
	for sc.count("/metrics") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the prober never fetched a page")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, h := range []http.Handler{f.MetricsHandler(), f.HealthHandler()} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
					if rec.Code != http.StatusOK {
						t.Errorf("view answered %d:\n%s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
