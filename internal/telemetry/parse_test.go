package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// observeAll records each duration into the histogram.
func observeAll(h *Histogram, ds ...time.Duration) {
	for _, d := range ds {
		h.Observe(d)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("req_total").Add(42)
	reg.Counter("err_total").Add(3)
	reg.Gauge("inflight").Set(7)
	observeAll(reg.Histogram("lat"), time.Millisecond, 3*time.Millisecond, 40*time.Millisecond)

	var b strings.Builder
	if err := reg.Snapshot().WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	e, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := e.Counter("req_total"); !ok || v != 42 {
		t.Errorf("req_total = %d, %v; want 42, true", v, ok)
	}
	if v, ok := e.Gauge("inflight"); !ok || v != 7 {
		t.Errorf("inflight = %g, %v; want 7, true", v, ok)
	}
	st, ok := e.Histograms["lat"]
	if !ok {
		t.Fatal("histogram lat missing from parsed exposition")
	}
	want := reg.Histogram("lat").State()
	if st != want {
		t.Errorf("parsed histogram state = %+v; want %+v", st, want)
	}
	// The reconstructed state must reproduce the original quantiles
	// exactly — this is what makes fleet merging trustworthy.
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, w := st.Quantile(q), want.Quantile(q); got != w {
			t.Errorf("Quantile(%g) = %v; want %v", q, got, w)
		}
	}
}

func TestParseTextSkipsMalformedLines(t *testing.T) {
	in := strings.Join([]string{
		"uptime 3s",
		"counter good 5",
		"counter bad notanumber",
		"counter missingvalue",
		"gauge depth 2.5",
		"gauge broken x=y",
		"histogram lat count=notint min=1ms",
		"histogram ok count=2 min=1ms mean=2ms p50=2ms p95=3ms p99=3ms max=3ms sum=4000000 min_ns=1000000 max_ns=3000000 buckets=21:2",
		"histogram badbuckets count=2 min=1ms mean=2ms p50=2ms p95=3ms p99=3ms max=3ms sum=4000000 min_ns=1000000 max_ns=3000000 buckets=999:2",
		"totally unrecognized line kind",
		"",
		"spans run 9",
	}, "\n")
	e, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := e.Counter("good"); !ok || v != 5 {
		t.Errorf("good = %d, %v; want 5, true", v, ok)
	}
	if _, ok := e.Counter("bad"); ok {
		t.Error("malformed counter line was not skipped")
	}
	if _, ok := e.Counter("missingvalue"); ok {
		t.Error("short counter line was not skipped")
	}
	if v, ok := e.Gauge("depth"); !ok || v != 2.5 {
		t.Errorf("depth = %g, %v; want 2.5, true", v, ok)
	}
	if _, ok := e.Gauges["broken"]; ok {
		t.Error("malformed gauge line was not skipped")
	}
	if _, ok := e.Histograms["lat"]; ok {
		t.Error("histogram with bad count was not skipped")
	}
	st, ok := e.Histograms["ok"]
	if !ok || st.Count != 2 || st.Buckets[21] != 2 {
		t.Errorf("well-formed histogram mis-parsed: %+v ok=%v", st, ok)
	}
	// A corrupt buckets field falls back to the digest approximation
	// rather than dropping the series.
	if st, ok := e.Histograms["badbuckets"]; !ok || st.Count != 2 {
		t.Errorf("histogram with bad buckets should fall back to digest: %+v ok=%v", st, ok)
	}
	if e.SpanCounts["run"] != 9 {
		t.Errorf("spans run = %d; want 9", e.SpanCounts["run"])
	}
	if e.Uptime != 3*time.Second {
		t.Errorf("uptime = %v; want 3s", e.Uptime)
	}
}

func TestParseTextMissingGauge(t *testing.T) {
	e, err := ParseText(strings.NewReader("counter x 1\n"))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := e.Gauge("serve_requests_inflight"); ok || v != 0 {
		t.Errorf("missing gauge lookup = %g, %v; want 0, false", v, ok)
	}
}

// failingReader yields its prefix, then a read error — a truncated
// scrape body.
type failingReader struct {
	data string
	off  int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, errors.New("connection reset mid-body")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestParseTextTruncatedBody(t *testing.T) {
	r := &failingReader{data: "counter a 1\ncounter b 2\n"}
	e, err := ParseText(r)
	if err == nil {
		t.Fatal("want read error from truncated body")
	}
	// Everything before the fault is still delivered.
	if v, ok := e.Counter("a"); !ok || v != 1 {
		t.Errorf("a = %d, %v; want 1, true (partial parse lost)", v, ok)
	}
	if v, ok := e.Counter("b"); !ok || v != 2 {
		t.Errorf("b = %d, %v; want 2, true (partial parse lost)", v, ok)
	}
}

func TestHistogramStateMergeCounts(t *testing.T) {
	// Three "nodes" observe disjoint latency populations; the merged
	// state must count exactly their sum and envelope min/max.
	var hs [3]*Histogram
	var total int64
	rng := rand.New(rand.NewSource(7))
	for i := range hs {
		hs[i] = &Histogram{}
		n := 50 + rng.Intn(100)
		total += int64(n)
		for j := 0; j < n; j++ {
			hs[i].Observe(time.Duration(rng.Intn(1e8)) * time.Nanosecond)
		}
	}
	var merged HistogramState
	var sumCounts int64
	for _, h := range hs {
		st := h.State()
		sumCounts += st.Count
		merged.Merge(st)
	}
	if sumCounts != total {
		t.Fatalf("per-node counts sum to %d; want %d", sumCounts, total)
	}
	if merged.Count != total {
		t.Errorf("merged.Count = %d; want %d", merged.Count, total)
	}
	var wantSum int64
	wantMin, wantMax := hs[0].State().Min, hs[0].State().Max
	for _, h := range hs {
		st := h.State()
		wantSum += st.Sum
		if st.Min < wantMin {
			wantMin = st.Min
		}
		if st.Max > wantMax {
			wantMax = st.Max
		}
	}
	if merged.Sum != wantSum || merged.Min != wantMin || merged.Max != wantMax {
		t.Errorf("merged sum/min/max = %d/%v/%v; want %d/%v/%v",
			merged.Sum, merged.Min, merged.Max, wantSum, wantMin, wantMax)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		est := merged.Quantile(q)
		if est < merged.Min || est > merged.Max {
			t.Errorf("merged Quantile(%g) = %v outside [%v, %v]", q, est, merged.Min, merged.Max)
		}
	}
}

func TestHistogramStateMergeEmptySides(t *testing.T) {
	var empty HistogramState
	h := &Histogram{}
	observeAll(h, time.Millisecond, 2*time.Millisecond)
	st := h.State()

	m := empty
	m.Merge(st)
	if m != st {
		t.Errorf("empty.Merge(st) = %+v; want %+v", m, st)
	}
	m2 := st
	m2.Merge(HistogramState{})
	if m2 != st {
		t.Errorf("st.Merge(empty) = %+v; want %+v", m2, st)
	}
}

func TestExpositionMergeSumsAndEnvelopes(t *testing.T) {
	mk := func(c int64, g float64, lats ...time.Duration) *Exposition {
		reg := NewRegistry()
		reg.Counter("req").Add(c)
		reg.Gauge("inflight").Set(g)
		observeAll(reg.Histogram("lat"), lats...)
		var b strings.Builder
		reg.Snapshot().WriteText(&b)
		e, err := ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		return e
	}
	a := mk(10, 2, time.Millisecond, 2*time.Millisecond)
	b := mk(5, 3, 50*time.Millisecond)

	merged := NewExposition()
	merged.Merge(a)
	merged.Merge(b)
	if v, _ := merged.Counter("req"); v != 15 {
		t.Errorf("merged counter = %d; want 15", v)
	}
	if v, _ := merged.Gauge("inflight"); v != 5 {
		t.Errorf("merged gauge = %g; want 5", v)
	}
	st := merged.Histograms["lat"]
	if st.Count != 3 {
		t.Errorf("merged histogram count = %d; want 3 (sum of per-node counts)", st.Count)
	}
	if st.Min != time.Millisecond || st.Max != 50*time.Millisecond {
		t.Errorf("merged envelope = [%v, %v]; want [1ms, 50ms]", st.Min, st.Max)
	}

	// A merged page re-renders into parseable text (aggregation tiers
	// compose).
	var out strings.Builder
	if err := merged.WriteText(&out); err != nil {
		t.Fatalf("merged WriteText: %v", err)
	}
	again, err := ParseText(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("reparse merged: %v", err)
	}
	if again.Histograms["lat"] != st {
		t.Errorf("merged page did not round-trip: %+v vs %+v", again.Histograms["lat"], st)
	}
}

func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	// Snapshots taken while writers hammer every metric kind must be
	// internally coherent: histogram digests derive from the same state
	// capture, and nothing races (the race detector enforces the rest).
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("req")
			g := reg.Gauge("inflight")
			h := reg.Histogram("lat")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i % 10))
				h.Observe(time.Duration(1+i%1000) * time.Microsecond)
				// Churn the registry maps too, not just the values.
				reg.Counter(fmt.Sprintf("dyn_%d_%d", w, i%8)).Inc()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s := reg.Snapshot()
		st, sum := s.HistogramStates["lat"], s.Histograms["lat"]
		if st.Count != sum.Count {
			t.Fatalf("snapshot %d: state count %d != summary count %d (digest not derived from state)",
				i, st.Count, sum.Count)
		}
		if st.Count > 0 {
			var bucketTotal int64
			for _, n := range st.Buckets {
				bucketTotal += n
			}
			// State takes Count from the buckets it captured, so the two
			// agree exactly even mid-observation.
			if bucketTotal != st.Count {
				t.Fatalf("snapshot %d: bucket total %d != count %d", i, bucketTotal, st.Count)
			}
		}
		var b strings.Builder
		if err := s.WriteText(&b); err != nil {
			t.Fatalf("WriteText under load: %v", err)
		}
		if _, err := ParseText(strings.NewReader(b.String())); err != nil {
			t.Fatalf("ParseText under load: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestAggregatorMergesFleet(t *testing.T) {
	// Two live registries behind httptest servers plus one dead node:
	// /fleet/metrics must carry per-node sections and a merged histogram
	// whose count is the sum of per-node counts; /fleet/healthz must
	// report degraded.
	regs := []*Registry{NewRegistry(), NewRegistry()}
	counts := []int{30, 70}
	for i, reg := range regs {
		reg.Counter("serve_requests_total").Add(int64(counts[i]))
		for j := 0; j < counts[i]; j++ {
			reg.Histogram("serve_process").Observe(time.Duration(1+j) * time.Millisecond)
		}
	}
	var srvs []*httptest.Server
	targets := map[string]string{}
	for i, reg := range regs {
		reg := reg
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			reg.Snapshot().WriteText(w)
		}))
		defer s.Close()
		srvs = append(srvs, s)
		targets[fmt.Sprintf("node%d", i)] = s.URL + "/metrics"
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // refuse connections
	targets["node-dead"] = dead.URL + "/metrics"

	agg := NewAggregator(targets, time.Hour) // no background ticks in test
	if up := agg.Refresh(t.Context()); up != 2 {
		t.Fatalf("Refresh reported %d nodes up; want 2", up)
	}

	nodes, merged := agg.Fleet()
	if len(nodes) != 3 {
		t.Fatalf("Fleet returned %d nodes; want 3", len(nodes))
	}
	if v, _ := merged.Counter("serve_requests_total"); v != 100 {
		t.Errorf("merged counter = %d; want 100", v)
	}
	st := merged.Histograms["serve_process"]
	var perNodeSum int64
	for _, n := range nodes {
		if n.Exposition != nil {
			perNodeSum += n.Exposition.Histograms["serve_process"].Count
		}
	}
	if st.Count != perNodeSum || st.Count != 100 {
		t.Errorf("merged histogram count = %d; want %d (= sum of per-node counts = 100)",
			st.Count, perNodeSum)
	}

	// The text handler carries both per-node and merged sections.
	mrec := httptest.NewRecorder()
	agg.MetricsHandler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/fleet/metrics", nil))
	body := mrec.Body.String()
	for _, want := range []string{"# node node0 up", "# node node1 up", "# node node-dead down", "# fleet merged"} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleet/metrics missing %q in:\n%s", want, body)
		}
	}

	hrec := httptest.NewRecorder()
	agg.HealthHandler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/fleet/healthz", nil))
	if hrec.Code != http.StatusOK {
		t.Errorf("degraded fleet healthz status = %d; want 200", hrec.Code)
	}
	if !strings.Contains(hrec.Body.String(), `"status":"degraded"`) {
		t.Errorf("healthz body = %s; want degraded", hrec.Body.String())
	}

	// All nodes down -> 503.
	for _, s := range srvs {
		s.Close()
	}
	agg.Refresh(t.Context())
	hrec = httptest.NewRecorder()
	agg.HealthHandler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/fleet/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("all-down fleet healthz status = %d; want 503", hrec.Code)
	}
}

func TestAggregatorScrapeNonOK(t *testing.T) {
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer s.Close()
	agg := NewAggregator(map[string]string{"n": s.URL}, time.Hour)
	if up := agg.Refresh(t.Context()); up != 0 {
		t.Fatalf("Refresh on 500 node reported %d up; want 0", up)
	}
	nodes, _ := agg.Fleet()
	if nodes[0].Up || nodes[0].Err == "" {
		t.Errorf("node status = %+v; want down with error", nodes[0])
	}
}

var _ io.Reader = (*failingReader)(nil)
