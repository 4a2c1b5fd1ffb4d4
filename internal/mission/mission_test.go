package mission

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/telemetry"
)

// TestCampaignOverlapsBaselines proves mission.Run pipelines baselines
// through the shared pool concurrently: each starting baseline blocks in
// the start hook until a second one arrives, so a serial campaign would
// trip the timeout flag while a concurrent one rendezvouses immediately.
func TestCampaignOverlapsBaselines(t *testing.T) {
	var arrived atomic.Int32
	var timedOut atomic.Bool
	release := make(chan struct{})
	testHookBaselineStart = func(int) {
		if arrived.Add(1) == 2 {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
	}
	defer func() { testHookBaselineStart = nil }()

	cfg := DefaultConfig("")
	cfg.Baselines = 4
	cfg.Concurrency = 4
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("baselines ran serially: no second baseline started while the first waited")
	}
	if n := arrived.Load(); n != 4 {
		t.Fatalf("start hook saw %d baselines, want 4", n)
	}
}

func TestCampaignWithPreprocessingBeatsWithout(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	cfg.Baselines = 2
	withPre, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfgNo := cfg
	cfgNo.Dir = t.TempDir()
	cfgNo.Preprocess = nil
	without, err := Run(cfgNo)
	if err != nil {
		t.Fatal(err)
	}

	if withPre.MeanPsi >= without.MeanPsi {
		t.Fatalf("preprocessing did not help: with %.5f, without %.5f", withPre.MeanPsi, without.MeanPsi)
	}
	if len(withPre.Baselines) != 2 || withPre.TotalDownlinkBytes == 0 {
		t.Fatalf("report malformed: %+v", withPre)
	}
}

func TestCampaignWithoutStoreLayer(t *testing.T) {
	cfg := DefaultConfig("")
	cfg.Baselines = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Baselines[0]
	if b.HeaderIssues != 0 || b.HeaderRepairs != 0 || b.HeaderLost != 0 {
		t.Fatalf("store-less run reported header activity: %+v", b)
	}
	if b.CRHits == 0 {
		t.Fatal("no cosmic rays rejected")
	}
}

func TestCampaignHeaderActivityReported(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	cfg.Baselines = 2
	cfg.HeaderRate = 0.001 // heavy header damage to guarantee issues
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	issues := 0
	for _, b := range rep.Baselines {
		issues += b.HeaderIssues
	}
	if issues == 0 {
		t.Fatal("no header issues found at 0.1% header damage")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	cfg.Baselines = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanPsi != b.MeanPsi || a.TotalDownlinkBytes != b.TotalDownlinkBytes {
		t.Fatalf("same seed produced different campaigns: %+v vs %+v", a, b)
	}
}

func TestCampaignSchedulesPasses(t *testing.T) {
	cfg := DefaultConfig("")
	cfg.Baselines = 3
	cfg.PassBudget = 8000 // roughly one product per pass
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) == 0 {
		t.Fatal("no passes planned")
	}
	sent := 0
	for _, p := range rep.Passes {
		sent += len(p.Sent)
		if p.SentBytes > cfg.PassBudget {
			t.Fatalf("pass exceeded budget: %d > %d", p.SentBytes, cfg.PassBudget)
		}
	}
	if sent != cfg.Baselines {
		t.Fatalf("%d products flown, want %d", sent, cfg.Baselines)
	}
}

func TestCampaignOversizedProductFailsCleanly(t *testing.T) {
	cfg := DefaultConfig("")
	cfg.Baselines = 1
	cfg.PassBudget = 10 // nothing fits
	if _, err := Run(cfg); err == nil {
		t.Fatal("oversized product should error, not loop")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig("")
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := good
	bad.Baselines = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero baselines should be invalid")
	}
	bad = good
	bad.MemoryRate = 2
	if err := bad.Validate(); err == nil {
		t.Error("memory rate > 1 should be invalid")
	}
	bad = good
	badPre := core.NGSTConfig{Upsilon: 3}
	bad.Preprocess = &badPre
	if err := bad.Validate(); err == nil {
		t.Error("invalid preprocessor config should be invalid")
	}
	bad = good
	bad.TileSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tile should be invalid")
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		Baselines: []BaselineResult{{Index: 0, Psi: 0.01, CRHits: 5, DownlinkBytes: 100}},
		MeanPsi:   0.01, TotalDownlinkBytes: 100,
	}
	out := rep.Render()
	for _, want := range []string{"base", "0.010000", "mean Psi", "100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCampaignTracePerBaseline asserts the mission layer mints one trace
// root per baseline and that the pipeline's spans chain under it, that
// every stage is counted once per instance, and that the forensics WARN
// records are stamped with the baseline's trace ID.
func TestCampaignTracePerBaseline(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logBuf strings.Builder

	cfg := DefaultConfig(t.TempDir())
	cfg.Baselines = 2
	cfg.Telemetry = reg
	cfg.Logger = telemetry.NewLogger(&logBuf, slog.LevelWarn)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	roots := map[uint64]string{} // trace ID -> baseline label
	children := map[uint64]int{}
	for _, ev := range reg.Tracer().Events() {
		if ev.Stage == "baseline" {
			if ev.ParentID != 0 {
				t.Fatalf("baseline root %s has a parent", ev.Label)
			}
			roots[ev.TraceID] = ev.Label
		} else {
			children[ev.TraceID]++
		}
	}
	if len(roots) != 2 {
		t.Fatalf("want 2 baseline trace roots, got %v", roots)
	}
	// Every stage is counted once per instance: each mission stage and
	// each pool run once per baseline, each tile stage once per tile of
	// the 64x64 scene's four.
	counts := reg.Snapshot().SpanCounts
	for stage, want := range map[string]int64{
		"synth": 2, "reference": 2, "inject": 2, "store": 2, "pipeline": 2, "score": 2,
		"run": 2, "fragment": 2, "compress": 2, "dispatch": 8, "process": 8, "blit": 8,
	} {
		if got := counts[stage]; got != want {
			t.Fatalf("stage %s counted %d spans, want %d: %v", stage, got, want, counts)
		}
	}
	for id, label := range roots {
		if children[id] == 0 {
			t.Fatalf("baseline %s has no child spans", label)
		}
	}
	for id := range children {
		if _, ok := roots[id]; !ok {
			t.Fatalf("orphan trace %016x not rooted at a baseline", id)
		}
	}

	// Forensics: the default campaign injects memory faults, so the WARN
	// record fires and carries one of the baseline trace IDs.
	logged := logBuf.String()
	if !strings.Contains(logged, "preprocessing corrected input faults") {
		t.Fatalf("no forensics WARN emitted:\n%s", logged)
	}
	found := false
	for id := range roots {
		if strings.Contains(logged, fmt.Sprintf("trace_id=%016x", id)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("forensics records not stamped with a baseline trace ID:\n%s", logged)
	}
}

// TestRunContextCancelAborts proves a cancelled context stops the
// campaign with a context error instead of flying every baseline.
func TestRunContextCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig("")
	cfg.Baselines = 2
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
