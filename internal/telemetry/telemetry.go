// Package telemetry is the pipeline observability layer: a dependency-free
// metrics subsystem (atomic counters, gauges, bounded latency histograms
// with percentile estimation, and per-stage span tracing over an in-memory
// ring buffer) plus a text exposition handler and an HTTP sidecar serving
// /metrics, /healthz and net/http/pprof.
//
// The design goal is flight-style continuous measurement with negligible
// hot-path cost: every write is one or two atomic operations, registry
// lookups are done once at wiring time, and nothing here allocates per
// observation. All types are safe for concurrent use.
//
// This package is operational: it describes how a running pipeline behaved
// (throughput, latency, retries, trace timelines, log records). The
// science-quality numbers — Psi, gain, the paper's equations 3 and 4
// against ground truth — live in internal/metrics.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two duration buckets: bucket i
// counts observations d with bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i).
// 64 buckets cover every representable duration.
const histBuckets = 64

// Histogram is a bounded latency histogram over exponential (power-of-two)
// nanosecond buckets. It records count, sum, min and max exactly and
// estimates quantiles by linear interpolation inside the bucket where the
// cumulative count crosses the rank — precise enough for p50/p95/p99
// operational dashboards at a fixed 512-byte footprint.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
	initMin sync.Once
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.initMin.Do(func() { h.min.Store(math.MaxInt64) })
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-th quantile (q in [0,1]) of the observed
// durations. With no observations it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.State().Quantile(q)
}

// State captures the histogram's complete bucket state: unlike Summary,
// which digests into fixed quantiles, a State can be merged with the
// states of other histograms (other nodes' /metrics pages) and the merged
// quantiles recomputed from the combined buckets — the only way to
// aggregate percentiles across a fleet without averaging lies.
//
// The capture keeps Count equal to the sum of Buckets even while writers
// race it: the buckets are loaded first and Count is taken from their
// sum. Observe bumps its bucket last, after count, sum, min and max, so
// every observation the buckets hold is already in Sum, Min and Max
// (which may also include a few observations still in flight).
func (h *Histogram) State() HistogramState {
	var s HistogramState
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	if s.Count == 0 {
		return HistogramState{}
	}
	s.Sum = h.sum.Load()
	s.Min = time.Duration(h.min.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// HistogramState is the mergeable state of one Histogram: exact count,
// sum, min and max, plus the power-of-two bucket counts quantiles are
// estimated from. The zero value is an empty histogram.
type HistogramState struct {
	Count, Sum int64
	Min, Max   time.Duration
	Buckets    [histBuckets]int64
}

// Merge folds o into s. Merging preserves counts and sums exactly and
// quantile estimation error stays bounded by the bucket resolution, so a
// fleet-merged p99 is as trustworthy as a single node's.
func (s *HistogramState) Merge(o HistogramState) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts, interpolating inside the bucket where the cumulative count
// crosses the rank and clamping to the observed [Min, Max] envelope.
func (s HistogramState) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(s.Buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			// Interpolate within [2^(i-1), 2^i).
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / n
			return s.clamp(lo + frac*(hi-lo))
		}
		cum += n
	}
	return s.Max
}

// clamp keeps interpolated estimates inside the true [Min, Max] envelope
// so a half-empty top bucket cannot report beyond the worst case.
func (s HistogramState) clamp(est float64) time.Duration {
	if est < float64(s.Min) {
		return s.Min
	}
	if est > float64(s.Max) {
		return s.Max
	}
	return time.Duration(est)
}

// Summary digests the state into the fixed operational quantiles.
func (s HistogramState) Summary() HistogramSummary {
	out := HistogramSummary{Count: s.Count}
	if s.Count == 0 {
		return out
	}
	out.Min = s.Min
	out.Max = s.Max
	out.Mean = time.Duration(s.Sum / s.Count)
	out.P50 = s.Quantile(0.50)
	out.P95 = s.Quantile(0.95)
	out.P99 = s.Quantile(0.99)
	return out
}

// bucketBounds returns the nanosecond range covered by bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(int64(1) << (i - 1)), float64(int64(1) << i)
}

// HistogramSummary is a point-in-time digest of one histogram.
type HistogramSummary struct {
	Count         int64
	Min, Max      time.Duration
	Mean          time.Duration
	P50, P95, P99 time.Duration
}

// Summary digests the histogram.
func (h *Histogram) Summary() HistogramSummary {
	return h.State().Summary()
}

// Registry is a named collection of counters, gauges, histograms and the
// span ring buffer. Metric accessors are get-or-create and safe for
// concurrent use; hot paths should resolve their metrics once and hold the
// returned pointers.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    spanRing
	tracer   *Tracer
	start    time.Time
}

// DefaultSpanCapacity bounds the span ring buffer of NewRegistry.
const DefaultSpanCapacity = 4096

// NewRegistry returns an empty registry with the default span capacity.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
	r.spans.init(DefaultSpanCapacity)
	return r
}

// SetSpanCapacity resizes the span ring buffer, dropping buffered spans.
// Per-stage totals survive the resize.
func (r *Registry) SetSpanCapacity(n int) { r.spans.resize(n) }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Uptime returns the time elapsed since the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// Snapshot is a consistent point-in-time view of a registry, suitable for
// rendering after a run or serving from /metrics.
type Snapshot struct {
	// Uptime is the registry age at snapshot time.
	Uptime time.Duration
	// Counters, Gauges and Histograms map metric names to their values.
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSummary
	// HistogramStates carries each histogram's full bucket state so the
	// text exposition is mergeable across nodes (see HistogramState.Merge
	// and ParseText).
	HistogramStates map[string]HistogramState
	// SpanCounts maps each span stage to the total number of spans ever
	// recorded for it (monotonic: ring-buffer eviction does not decrease
	// it).
	SpanCounts map[string]int64
	// Spans holds the most recent spans, oldest first, bounded by the
	// ring capacity.
	Spans []Span
}

// Snapshot captures the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Uptime:          r.Uptime(),
		Counters:        map[string]int64{},
		Gauges:          map[string]float64{},
		Histograms:      map[string]HistogramSummary{},
		HistogramStates: map[string]HistogramState{},
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		st := h.State()
		s.HistogramStates[name] = st
		s.Histograms[name] = st.Summary()
	}
	r.mu.RUnlock()
	s.SpanCounts = r.spans.totals()
	s.Spans = r.spans.snapshot()
	return s
}

// sortedKeys returns the map keys in lexical order (stable rendering).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtDur renders a duration compactly for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
