package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"sync"
	"time"

	"spaceproc/internal/rng"
)

// Distributed tracing. A TraceContext names one causal chain of work (a
// baseline flowing through the Figure 1 pipeline); it is minted by the
// mission layer or the cluster master, attached to every tile dispatch,
// carried over the gob transport, and continued on the serving node, so a
// retry on worker 12 or a deadline expiry on a remote slave shows up as a
// child span of the dispatch that caused it. The Tracer is the one span
// recorder: it counts every span its own process records per stage (the
// "spans" lines of /metrics) and keeps the traced ones in a bounded buffer
// that exports as Chrome trace-event JSON (chrome://tracing / Perfetto
// loadable).
//
// Identifiers come from internal/rng (PCG), not from wall clocks or
// crypto/rand: the generator is seeded per process (pid-mixed, overridable
// for deterministic tests), so no global clock or shared state is assumed
// across nodes.

// TraceContext identifies a position in one trace: the trace itself and
// the span that current work should parent under. The zero value is
// invalid (no trace). Fields are exported so the context survives gob
// encoding on the cluster transport.
type TraceContext struct {
	// TraceID names the causal chain (one baseline run).
	TraceID uint64
	// SpanID is the span new child work should attach to.
	SpanID uint64
}

// Valid reports whether the context carries a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// String renders "traceID/spanID" in hex, the form logged by the slog
// handler.
func (tc TraceContext) String() string {
	return fmt.Sprintf("%016x/%016x", tc.TraceID, tc.SpanID)
}

// idSource is the process-wide span/trace ID generator: a PCG stream under
// a mutex. Seeding mixes the pid so two processes on one machine (a master
// and its slave servers) draw from different streams without any clock or
// coordination assumptions; SeedTraceIDs pins it for deterministic tests.
var idSource = struct {
	mu  sync.Mutex
	src *rng.Source
}{src: rng.NewStream(0x5350524F43<<8|uint64(os.Getpid()), uint64(os.Getpid()))}

// SeedTraceIDs reseeds the process-wide ID generator (tests that want
// reproducible trace artifacts).
func SeedTraceIDs(seed, stream uint64) {
	idSource.mu.Lock()
	idSource.src = rng.NewStream(seed, stream)
	idSource.mu.Unlock()
}

// NewTraceID returns a fresh non-zero trace identifier.
func NewTraceID() uint64 { return newID() }

// NewSpanID returns a fresh non-zero span identifier.
func NewSpanID() uint64 { return newID() }

func newID() uint64 {
	idSource.mu.Lock()
	defer idSource.mu.Unlock()
	for {
		if id := idSource.src.Uint64(); id != 0 {
			return id
		}
	}
}

// TraceEvent is one completed span. Besides its stage and timing it
// carries the causal identifiers and the process/track it ran on, which is
// what makes the cross-process timeline assemblable.
type TraceEvent struct {
	// TraceID, SpanID and ParentID place the event in its trace tree.
	// ParentID is zero for root spans. A zero TraceID marks work outside
	// any trace: it is counted but neither buffered nor exported.
	TraceID, SpanID, ParentID uint64
	// Stage groups events for aggregation ("dispatch", "process",
	// "serve", "retry"); Label distinguishes instances ("tile_12").
	Stage, Label string
	// Proc names the process that produced the event ("master",
	// "worker 127.0.0.1:7070"); the exporter maps each distinct name to a
	// Chrome pid row.
	Proc string
	// TID selects the track within the process (worker index in the
	// master, 0 to derive one per trace).
	TID int64
	// Start and Dur time the span on the producing process's clock.
	Start time.Time
	Dur   time.Duration
	// Args carries optional forensic detail (error strings, retry
	// attempt) into the Chrome args pane.
	Args map[string]string
}

// DefaultTraceCapacity bounds a registry's tracer buffer.
const DefaultTraceCapacity = 8192

// Tracer records completed spans: a monotonic count per stage of every
// span this process recorded, which survives eviction, and a bounded ring
// buffer of the traced events. All methods are safe for concurrent use and
// are no-ops on a nil receiver, so call sites need no guards.
type Tracer struct {
	mu      sync.Mutex
	buf     []TraceEvent
	next    int
	filled  bool
	dropped int64
	proc    string
	total   map[string]int64
	// seen dedupes by span ID (bounded by the ring): when a master and a
	// slave server share one process — and therefore one registry — a
	// serve span arrives both locally and folded back over the transport.
	seen map[uint64]struct{}
}

// NewTracer returns a tracer with the given buffer capacity (minimum 1).
// proc names this process in exported timelines ("master", "worker 3").
func NewTracer(capacity int, proc string) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	if proc == "" {
		proc = "main"
	}
	return &Tracer{
		buf:   make([]TraceEvent, 0, capacity),
		proc:  proc,
		total: make(map[string]int64),
		seen:  make(map[uint64]struct{}),
	}
}

// SetProc renames the tracer's process label for subsequent events.
func (t *Tracer) SetProc(proc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = proc
	t.mu.Unlock()
}

// Record counts a span this process completed under its stage and, when
// it belongs to a trace, appends it to the buffer, evicting the oldest
// when full. An empty Proc is stamped with the tracer's process label.
func (t *Tracer) Record(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total[ev.Stage]++
	t.buffer(ev)
	t.mu.Unlock()
}

// Adopt appends a span another process recorded (a remote worker's serve
// span, folded back over the transport) to the buffer without counting
// it: the registry of the process that recorded it counts it, so merging
// both nodes' /metrics pages counts it once.
func (t *Tracer) Adopt(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buffer(ev)
	t.mu.Unlock()
}

// buffer appends a traced event unless its span ID is already buffered.
// Callers hold t.mu.
func (t *Tracer) buffer(ev TraceEvent) {
	if ev.TraceID == 0 {
		return
	}
	if ev.SpanID != 0 {
		if _, dup := t.seen[ev.SpanID]; dup {
			return
		}
		t.seen[ev.SpanID] = struct{}{}
	}
	if ev.Proc == "" {
		ev.Proc = t.proc
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	delete(t.seen, t.buf[t.next].SpanID)
	t.buf[t.next] = ev
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.filled = true
	t.dropped++
}

// stageCounts copies the per-stage span totals; a nil tracer has none.
func (t *Tracer) stageCounts() map[string]int64 {
	if t == nil {
		return map[string]int64{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.total)
}

// Dropped returns how many events were evicted to honor the bound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		out := make([]TraceEvent, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// StartTrace mints a new trace and opens its root span.
func (t *Tracer) StartTrace(stage, label string) *TraceSpan {
	if t == nil {
		return nil
	}
	return &TraceSpan{
		tracer: t,
		tc:     TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()},
		stage:  stage,
		label:  label,
		start:  time.Now(),
	}
}

// StartSpan opens a child span under parent. With an invalid parent it
// behaves like StartTrace (a fresh root), so callers can propagate
// whatever context they were handed.
func (t *Tracer) StartSpan(parent TraceContext, stage, label string) *TraceSpan {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartTrace(stage, label)
	}
	return &TraceSpan{
		tracer: t,
		tc:     TraceContext{TraceID: parent.TraceID, SpanID: NewSpanID()},
		parent: parent.SpanID,
		stage:  stage,
		label:  label,
		start:  time.Now(),
	}
}

// TraceSpan is an in-flight span. End records it. A nil span (from a nil
// tracer) is a no-op throughout.
type TraceSpan struct {
	tracer *Tracer
	tc     TraceContext
	parent uint64
	stage  string
	label  string
	tid    int64
	start  time.Time
	args   map[string]string
}

// Context returns the span's TraceContext: child work started with it
// parents under this span.
func (s *TraceSpan) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return s.tc
}

// SetTID pins the Chrome track the span renders on.
func (s *TraceSpan) SetTID(tid int64) {
	if s != nil {
		s.tid = tid
	}
}

// Annotate attaches one key/value to the span's exported args.
func (s *TraceSpan) Annotate(key, value string) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]string)
	}
	s.args[key] = value
}

// End records the completed span into its tracer.
func (s *TraceSpan) End() { s.EndTo(nil) }

// EndTo records the span and also observes its duration into h when h is
// non-nil, so a latency histogram timing the same interval reads the
// span's own clock.
func (s *TraceSpan) EndTo(h *Histogram) {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.tracer.Record(TraceEvent{
		TraceID:  s.tc.TraceID,
		SpanID:   s.tc.SpanID,
		ParentID: s.parent,
		Stage:    s.stage,
		Label:    s.label,
		TID:      s.tid,
		Start:    s.start,
		Dur:      d,
		Args:     s.args,
	})
	if h != nil {
		h.Observe(d)
	}
}

// chromeEvent is one Chrome trace-event object. All seven canonical keys
// are always present so the artifact validates against the schema the
// acceptance tooling checks ({name,ph,ts,dur,pid,tid,args}).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChrome exports the buffered events as a Chrome trace-event JSON
// array of complete ("ph":"X") events. Timestamps are microseconds
// relative to the earliest buffered event, so no absolute clock agreement
// between processes is required; each distinct Proc becomes a pid, and
// events without an explicit TID get one track per trace.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	var epoch time.Time
	for _, ev := range events {
		if epoch.IsZero() || ev.Start.Before(epoch) {
			epoch = ev.Start
		}
	}
	pids := map[string]int{}
	tids := map[uint64]int64{}
	out := make([]chromeEvent, 0, len(events))
	for _, ev := range events {
		pid, ok := pids[ev.Proc]
		if !ok {
			pid = len(pids) + 1
			pids[ev.Proc] = pid
		}
		tid := ev.TID
		if tid == 0 {
			var ok bool
			if tid, ok = tids[ev.TraceID]; !ok {
				tid = int64(len(tids) + 1)
				tids[ev.TraceID] = tid
			}
		}
		name := ev.Stage
		if ev.Label != "" {
			name = ev.Stage + " " + ev.Label
		}
		args := map[string]string{
			"trace_id": fmt.Sprintf("%016x", ev.TraceID),
			"span_id":  fmt.Sprintf("%016x", ev.SpanID),
			"proc":     ev.Proc,
		}
		if ev.ParentID != 0 {
			args["parent_id"] = fmt.Sprintf("%016x", ev.ParentID)
		}
		for k, v := range ev.Args {
			args[k] = v
		}
		out = append(out, chromeEvent{
			Name: name,
			Cat:  ev.Stage,
			Ph:   "X",
			Ts:   float64(ev.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(ev.Dur.Nanoseconds()) / 1e3,
			Pid:  pid,
			Tid:  tid,
			Args: args,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteTraceFile writes the tracer's buffered events to path as Chrome
// trace-event JSON (the -trace flag of the cmd binaries). A nil tracer
// still writes a valid empty artifact.
func (t *Tracer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Tracer returns the registry's tracer, created on first use with the
// default capacity. A nil registry yields a nil (no-op) tracer, so the
// instrumentation sites stay guard-free like the metrics side.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.tracer
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tracer == nil {
		r.tracer = NewTracer(DefaultTraceCapacity, "main")
	}
	return r.tracer
}

// traceCtxKey carries a traceRef through a context.
type traceCtxKey struct{}

type traceRef struct {
	tracer *Tracer
	tc     TraceContext
}

// ContextWithTrace returns a context carrying the trace position and the
// tracer completed child spans should record into. Either may be nil/zero;
// downstream extractors handle both.
func ContextWithTrace(ctx context.Context, tracer *Tracer, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, traceRef{tracer: tracer, tc: tc})
}

// TraceFromContext extracts the trace position, reporting whether one is
// carried and valid.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	ref, ok := ctx.Value(traceCtxKey{}).(traceRef)
	if !ok || !ref.tc.Valid() {
		return TraceContext{}, false
	}
	return ref.tc, true
}

// TracerFromContext extracts the destination tracer, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	ref, ok := ctx.Value(traceCtxKey{}).(traceRef)
	if !ok {
		return nil
	}
	return ref.tracer
}
