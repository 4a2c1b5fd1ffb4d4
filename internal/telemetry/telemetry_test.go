package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("requests_total") != c {
		t.Fatal("same name should return the same counter")
	}
	g := reg.Gauge("workers")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	sum := h.Summary()
	if sum.Count != 1000 {
		t.Fatalf("count = %d, want 1000", sum.Count)
	}
	if sum.Min != time.Microsecond || sum.Max != time.Millisecond {
		t.Fatalf("min/max = %v/%v, want 1us/1ms", sum.Min, sum.Max)
	}
	if sum.Mean < 400*time.Microsecond || sum.Mean > 600*time.Microsecond {
		t.Fatalf("mean = %v, want ~500us", sum.Mean)
	}
	// Power-of-two buckets are coarse; accept a factor-of-two band around
	// the true quantile, plus the clamp to observed extremes.
	if sum.P50 < 250*time.Microsecond || sum.P50 > time.Millisecond {
		t.Fatalf("p50 = %v outside the plausible band", sum.P50)
	}
	if sum.P95 < sum.P50 || sum.P99 < sum.P95 || sum.Max < sum.P99 {
		t.Fatalf("quantiles not monotonic: %+v", sum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	sum := h.Summary()
	if sum.Count != 0 || sum.Min != 0 || sum.Max != 0 || sum.P99 != 0 {
		t.Fatalf("empty histogram summary not zero: %+v", sum)
	}
}

func TestSpanRingEvictionKeepsTotals(t *testing.T) {
	tr := NewTracer(8, "test")
	start := time.Now()
	for i := 0; i < 20; i++ {
		tr.Record(TraceEvent{TraceID: 1, SpanID: uint64(i + 1), Stage: "process",
			Label: fmt.Sprintf("tile_%d", i), Start: start, Dur: time.Millisecond})
	}
	if got := len(tr.Events()); got != 8 {
		t.Fatalf("ring holds %d spans, want 8", got)
	}
	if got := tr.stageCounts()["process"]; got != 20 {
		t.Fatalf("span total = %d, want 20 (must survive eviction)", got)
	}
	// The retained spans are the most recent ones.
	spans := tr.Events()
	if spans[len(spans)-1].Label != "tile_19" {
		t.Fatalf("last span = %q, want tile_19", spans[len(spans)-1].Label)
	}
}

func TestTraceSpanNilRegistry(t *testing.T) {
	var reg *Registry
	sp := reg.Tracer().StartSpan(TraceContext{}, "x", "y")
	sp.End() // must not panic
	sp.EndTo(nil)
}

func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("hits").Inc()
				reg.Gauge("level").Set(float64(i))
				reg.Histogram("lat").Observe(time.Duration(i+1) * time.Microsecond)
				reg.Tracer().Record(TraceEvent{Stage: "stage", Label: "label", Start: time.Now(), Dur: time.Microsecond})
				if i%100 == 0 {
					reg.Snapshot() // readers race with writers
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["hits"]; got != goroutines*perG {
		t.Fatalf("hits = %d, want %d", got, goroutines*perG)
	}
	if got := snap.HistogramStates["lat"].Count; got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := snap.SpanCounts["stage"]; got != goroutines*perG {
		t.Fatalf("span count = %d, want %d", got, goroutines*perG)
	}
}

// sampleRegistry holds one metric of each kind and one process span.
func sampleRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("tiles_total").Add(7)
	reg.Gauge("workers").Set(4)
	reg.Histogram("lat").Observe(2 * time.Millisecond)
	reg.Tracer().Record(TraceEvent{Stage: "process", Label: "tile_0", Start: time.Now(), Dur: time.Millisecond})
	return reg
}

func TestSnapshotWriteText(t *testing.T) {
	reg := sampleRegistry()

	var sb strings.Builder
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"counter tiles_total 7",
		"gauge workers 4",
		"histogram lat count=1",
		"spans process 1",
		"uptime",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if r := reg.Snapshot().Render(); !strings.Contains(r, "tiles_total") {
		t.Fatalf("Render missing counter:\n%s", r)
	}
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pings").Inc()
	srv, err := NewServer(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "counter pings 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || health.Status != "ok" {
		t.Fatalf("/healthz body %q (err %v)", body, err)
	}
	if health.Version == "" || health.Version != Version() {
		t.Fatalf("/healthz version %q, want %q", health.Version, Version())
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d %q", code, body)
	}

	span := reg.Tracer().StartTrace("run", "baseline_000")
	span.End()
	code, body = get("/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d", code)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/debug/trace body is not a JSON array: %v", err)
	}
	if len(events) != 1 || events[0]["name"] != "run baseline_000" {
		t.Fatalf("/debug/trace events = %v", events)
	}
}

func TestServerShutdownReleasesSocket(t *testing.T) {
	reg := NewRegistry()
	srv, err := NewServer(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("socket still accepting after Shutdown")
	}
	// Shutdown and Close are idempotent afterwards.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version() must never be empty")
	}
	if Version() != Version() {
		t.Fatal("Version() must be stable")
	}
}
