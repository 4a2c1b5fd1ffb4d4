package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	if v, ok := e.Counters["req_total"]; !ok || v != 42 {
		t.Errorf("req_total = %d, %v; want 42, true", v, ok)
	}
	if v, ok := e.Gauges["inflight"]; !ok || v != 7 {
		t.Errorf("inflight = %g, %v; want 7, true", v, ok)
	}
	st, ok := e.HistogramStates["lat"]
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
	if v, ok := e.Counters["good"]; !ok || v != 5 {
		t.Errorf("good = %d, %v; want 5, true", v, ok)
	}
	if _, ok := e.Counters["bad"]; ok {
		t.Error("malformed counter line was not skipped")
	}
	if _, ok := e.Counters["missingvalue"]; ok {
		t.Error("short counter line was not skipped")
	}
	if v, ok := e.Gauges["depth"]; !ok || v != 2.5 {
		t.Errorf("depth = %g, %v; want 2.5, true", v, ok)
	}
	if _, ok := e.Gauges["broken"]; ok {
		t.Error("malformed gauge line was not skipped")
	}
	if _, ok := e.HistogramStates["lat"]; ok {
		t.Error("histogram with bad count was not skipped")
	}
	st, ok := e.HistogramStates["ok"]
	if !ok || st.Count != 2 || st.Buckets[21] != 2 {
		t.Errorf("well-formed histogram mis-parsed: %+v ok=%v", st, ok)
	}
	// A corrupt buckets field falls back to the digest approximation
	// rather than dropping the series.
	if st, ok := e.HistogramStates["badbuckets"]; !ok || st.Count != 2 {
		t.Errorf("histogram with bad buckets should fall back to digest: %+v ok=%v", st, ok)
	}
	if e.SpanCounts["run"] != 9 {
		t.Errorf("spans run = %d; want 9", e.SpanCounts["run"])
	}
	if e.Uptime != 3*time.Second {
		t.Errorf("uptime = %v; want 3s", e.Uptime)
	}
}

// TestParseHistogramRejectsInconsistentBuckets checks that a histogram
// line whose buckets hold a negative count, or do not sum to its count,
// never parses into an inconsistent state: it falls back to the digest
// fields when the line carries them and is skipped when it does not.
func TestParseHistogramRejectsInconsistentBuckets(t *testing.T) {
	in := strings.Join([]string{
		"histogram h count=5 sum=1 min_ns=1 max_ns=1 buckets=3:-2",
		"histogram h2 count=5 sum=10 min_ns=1 max_ns=3 buckets=1:1,2:1",
		"histogram digest count=2 min=1ms mean=2ms p50=2ms p95=3ms p99=3ms max=3ms sum=4000000 min_ns=1000000 max_ns=3000000 buckets=21:3",
	}, "\n")
	e, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	for name, st := range e.HistogramStates {
		if err := checkState(st); err != nil {
			t.Errorf("histogram %q parsed inconsistent: %v", name, err)
		}
	}
	for _, name := range []string{"h", "h2"} {
		if st, ok := e.HistogramStates[name]; ok {
			t.Errorf("histogram %q without digest fields was not skipped: %+v", name, st)
		}
	}
	st, ok := e.HistogramStates["digest"]
	if !ok || st.Count != 2 || st.Sum != 4e6 || st.Buckets[bucketIndex(2e6)] != 2 {
		t.Errorf("mismatched buckets should fall back to the digest: %+v ok=%v", st, ok)
	}
}

func TestParseTextMissingGauge(t *testing.T) {
	e, err := ParseText(strings.NewReader("counter x 1\n"))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := e.Gauges["serve_requests_inflight"]; ok || v != 0 {
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
	if v, ok := e.Counters["a"]; !ok || v != 1 {
		t.Errorf("a = %d, %v; want 1, true (partial parse lost)", v, ok)
	}
	if v, ok := e.Counters["b"]; !ok || v != 2 {
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
	mk := func(c int64, g float64, lats ...time.Duration) Snapshot {
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

	var merged Snapshot
	merged.Merge(a)
	merged.Merge(b)
	if v := merged.Counters["req"]; v != 15 {
		t.Errorf("merged counter = %d; want 15", v)
	}
	if v := merged.Gauges["inflight"]; v != 5 {
		t.Errorf("merged gauge = %g; want 5", v)
	}
	// The fleet view merges the pages it stores, so Merge must leave its
	// argument as it was.
	if a.Counters["req"] != 10 || a.HistogramStates["lat"].Count != 2 {
		t.Errorf("Merge wrote into its argument: %+v", a)
	}
	st := merged.HistogramStates["lat"]
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
	if again.HistogramStates["lat"] != st {
		t.Errorf("merged page did not round-trip: %+v vs %+v", again.HistogramStates["lat"], st)
	}
}

func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	// Snapshots taken while writers hammer every metric kind must be
	// internally coherent: each histogram state's buckets sum to its
	// count, and nothing races (the race detector enforces the rest).
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
		st := s.HistogramStates["lat"]
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

var _ io.Reader = (*failingReader)(nil)
