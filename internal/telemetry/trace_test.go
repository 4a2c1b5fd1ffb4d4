package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("zero span ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %016x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestSeedTraceIDsReproducible(t *testing.T) {
	SeedTraceIDs(42, 7)
	a := []uint64{NewTraceID(), NewSpanID(), NewSpanID()}
	SeedTraceIDs(42, 7)
	b := []uint64{NewTraceID(), NewSpanID(), NewSpanID()}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %016x != %016x after reseeding", i, a[i], b[i])
		}
	}
}

func TestTraceContextValidity(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Fatal("zero TraceContext should be invalid")
	}
	tc := TraceContext{TraceID: 1, SpanID: 2}
	if !tc.Valid() {
		t.Fatal("non-zero TraceContext should be valid")
	}
	if got := tc.String(); got != "0000000000000001/0000000000000002" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer(16, "test")
	root := tr.StartTrace("run", "baseline")
	child := tr.StartSpan(root.Context(), "dispatch", "tile_0")
	child.Annotate("attempt", "0")
	child.End()
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	c, r := events[0], events[1]
	if c.TraceID != r.TraceID {
		t.Fatal("child and root in different traces")
	}
	if c.ParentID != r.SpanID {
		t.Fatal("child does not parent under root")
	}
	if r.ParentID != 0 {
		t.Fatal("root should have no parent")
	}
	if c.Args["attempt"] != "0" {
		t.Fatalf("annotation lost: %v", c.Args)
	}
	if c.Proc != "test" {
		t.Fatalf("proc not stamped: %q", c.Proc)
	}
}

func TestTracerOrphanSpanBecomesRoot(t *testing.T) {
	tr := NewTracer(4, "test")
	s := tr.StartSpan(TraceContext{}, "process", "x")
	s.End()
	ev := tr.Events()[0]
	if ev.TraceID == 0 || ev.ParentID != 0 {
		t.Fatalf("invalid parent should mint a fresh root, got %+v", ev)
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(4, "test")
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{TraceID: 1, SpanID: uint64(i + 1), Label: string(rune('a' + i))})
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// Oldest first: events 7..10 survive.
	if events[0].SpanID != 7 || events[3].SpanID != 10 {
		t.Fatalf("wrong survivors: %+v", events)
	}
}

func TestTracerDedupesBySpanID(t *testing.T) {
	tr := NewTracer(8, "test")
	ev := TraceEvent{TraceID: 1, SpanID: 42, Stage: "serve"}
	tr.Record(ev)
	tr.Record(ev) // folded back over the transport into the same registry
	if n := len(tr.Events()); n != 1 {
		t.Fatalf("duplicate span recorded %d times", n)
	}
	// Eviction must free the dedup slot so the map stays bounded.
	small := NewTracer(2, "test")
	small.Record(TraceEvent{TraceID: 1, SpanID: 1})
	small.Record(TraceEvent{TraceID: 1, SpanID: 2})
	small.Record(TraceEvent{TraceID: 1, SpanID: 3}) // evicts span 1
	small.Record(TraceEvent{TraceID: 1, SpanID: 1}) // no longer a duplicate
	events := small.Events()
	if len(events) != 2 || events[0].SpanID != 3 || events[1].SpanID != 1 {
		t.Fatalf("eviction left dedup state stale: %+v", events)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(TraceEvent{SpanID: 1})
	tr.SetProc("x")
	span := tr.StartTrace("run", "b")
	span.Annotate("k", "v")
	span.SetTID(3)
	span.End()
	if span.Context().Valid() {
		t.Fatal("nil span should have no context")
	}
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
}

func TestWriteChromeSchema(t *testing.T) {
	tr := NewTracer(16, "master")
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tr.Record(TraceEvent{
		TraceID: 0xaa, SpanID: 1, Stage: "run", Label: "baseline",
		Start: base, Dur: 5 * time.Millisecond,
	})
	tr.Record(TraceEvent{
		TraceID: 0xaa, SpanID: 2, ParentID: 1, Stage: "serve", Label: "tile_0",
		Proc: "worker 1", Start: base.Add(time.Millisecond), Dur: time.Millisecond,
		Args: map[string]string{"attempt": "0"},
	})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("artifact is not a JSON array: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid", "args"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("ph = %v, want complete event", ev["ph"])
		}
	}
	// Sorted by ts, normalized to the earliest event.
	if events[0]["ts"].(float64) != 0 {
		t.Fatalf("first ts = %v, want 0", events[0]["ts"])
	}
	if events[1]["ts"].(float64) != 1000 {
		t.Fatalf("second ts = %v, want 1000 us", events[1]["ts"])
	}
	// Distinct procs map to distinct pids; causal IDs land in args.
	if events[0]["pid"] == events[1]["pid"] {
		t.Fatal("master and worker should get distinct pids")
	}
	args := events[1]["args"].(map[string]any)
	if args["trace_id"] != "00000000000000aa" || args["parent_id"] != "0000000000000001" {
		t.Fatalf("args missing causal IDs: %v", args)
	}
	if args["attempt"] != "0" {
		t.Fatalf("event args not merged: %v", args)
	}
}

func TestWriteTraceFile(t *testing.T) {
	tr := NewTracer(4, "test")
	tr.Record(TraceEvent{TraceID: 1, SpanID: 1, Stage: "run", Start: time.Now()})
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if err := (*Tracer)(nil).WriteTraceFile(t.TempDir() + "/empty.json"); err != nil {
		t.Fatalf("nil tracer file write: %v", err)
	}
}

func TestRegistryTracerLazyAndNilSafe(t *testing.T) {
	var nilReg *Registry
	if nilReg.Tracer() != nil {
		t.Fatal("nil registry should yield nil tracer")
	}
	reg := NewRegistry()
	a, b := reg.Tracer(), reg.Tracer()
	if a == nil || a != b {
		t.Fatal("registry tracer should be created once and reused")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracer(4, "test")
	tc := TraceContext{TraceID: 7, SpanID: 9}
	ctx := ContextWithTrace(context.Background(), tr, tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %v, %v", got, ok)
	}
	if TracerFromContext(ctx) != tr {
		t.Fatal("tracer lost in context")
	}
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("bare context should carry no trace")
	}
	// An invalid trace position is reported as absent.
	ctx = ContextWithTrace(context.Background(), tr, TraceContext{})
	if _, ok := TraceFromContext(ctx); ok {
		t.Fatal("invalid TraceContext should not round-trip")
	}
	if TracerFromContext(ctx) != tr {
		t.Fatal("tracer should survive even without a valid position")
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64, "test")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				span := tr.StartTrace("run", "concurrent")
				span.End()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(tr.Events()); got != 64 {
		t.Fatalf("ring holds %d, want capacity 64", got)
	}
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}
