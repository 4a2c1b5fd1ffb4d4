// Package mission runs multi-baseline observation campaigns end to end:
// synthesize a baseline, persist it as FITS files, damage both the data
// memory and the file headers, reload through the sanity layer, run the
// Figure 1 pipeline with or without input preprocessing, and account for
// the science error and downlink budget. It is the integration layer a
// flight-software team would drive acceptance tests through.
package mission

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/downlink"
	"spaceproc/internal/fault"
	"spaceproc/internal/fits"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/store"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// Config parameterizes a campaign.
type Config struct {
	// Baselines is the number of observation baselines to fly.
	Baselines int
	// Scene is the per-baseline synthesis configuration.
	Scene synth.SceneConfig
	// MemoryRate is the per-bit flip probability applied to the raw
	// readouts in data memory.
	MemoryRate float64
	// HeaderRate is the per-bit flip probability applied to each FITS
	// header block on storage.
	HeaderRate float64
	// Workers is the pipeline worker count.
	Workers int
	// Concurrency bounds how many baselines are in flight at once through
	// the shared worker pool; 0 selects min(Baselines, 2). The report is
	// aggregated in baseline order regardless, and every baseline's
	// synthesis and fault injection derives from its own seed stream, so
	// campaigns stay deterministic at any concurrency.
	Concurrency int
	// TileSize is the fragment edge length.
	TileSize int
	// Preprocess configures worker-side input preprocessing; nil
	// disables it.
	Preprocess *core.NGSTConfig
	// Dir is the working directory for the FITS store; it must exist.
	// When empty, the storage layer (and header damage) is skipped.
	Dir string
	// PassBudget, when positive, schedules the compressed products into
	// ground-station passes of that many bytes each and reports the
	// passes flown.
	PassBudget int
	// Seed drives all synthesis and injection.
	Seed uint64
	// Telemetry, when non-nil, receives per-baseline stage spans and
	// latency histograms (mission_synth, mission_store, mission_pipeline,
	// ...), the pipeline master's per-tile instrumentation, and the
	// preprocessor's correction counters. It also activates distributed
	// tracing: Run mints one trace per baseline, and every mission stage,
	// tile dispatch and (remote) worker serve parents under it; export the
	// assembled timeline with Telemetry.Tracer().WriteChrome.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives fault forensics: a WARN per baseline
	// summarizing what preprocessing corrected (window A/B bit counts,
	// guard rejections) next to the ground-truth relative error, plus the
	// pipeline master's retry/failure records. Records logged under a
	// traced context carry the baseline's trace_id.
	Logger *slog.Logger
}

// DefaultConfig returns a small campaign suitable for tests and demos.
func DefaultConfig(dir string) Config {
	scene := synth.DefaultSceneConfig()
	scene.Width, scene.Height = 64, 64
	scene.Readouts = 16
	pre := core.DefaultNGSTConfig()
	return Config{
		Baselines:  3,
		Scene:      scene,
		MemoryRate: 0.005,
		HeaderRate: 0.0002,
		Workers:    4,
		TileSize:   32,
		Preprocess: &pre,
		Dir:        dir,
		Seed:       1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Baselines <= 0:
		return fmt.Errorf("mission: baselines must be positive, got %d", c.Baselines)
	case c.MemoryRate < 0 || c.MemoryRate > 1:
		return fmt.Errorf("mission: memory rate %v outside [0,1]", c.MemoryRate)
	case c.HeaderRate < 0 || c.HeaderRate > 1:
		return fmt.Errorf("mission: header rate %v outside [0,1]", c.HeaderRate)
	case c.Workers <= 0:
		return fmt.Errorf("mission: workers must be positive, got %d", c.Workers)
	case c.TileSize <= 0:
		return fmt.Errorf("mission: tile size must be positive, got %d", c.TileSize)
	case c.Concurrency < 0:
		return fmt.Errorf("mission: concurrency must be non-negative, got %d", c.Concurrency)
	}
	if c.Preprocess != nil {
		if err := c.Preprocess.Validate(); err != nil {
			return err
		}
	}
	return c.Scene.Validate()
}

// BaselineResult records one baseline's outcome.
type BaselineResult struct {
	// Index is the baseline ordinal.
	Index int
	// Psi is the relative error of the downlinked image against the
	// fault-free pipeline output.
	Psi float64
	// CRHits and CRSteps are the cosmic-ray rejection statistics.
	CRHits, CRSteps int
	// HeaderIssues/HeaderRepairs/HeaderLost summarize the storage
	// layer's sanity pass (zero when the store is skipped).
	HeaderIssues, HeaderRepairs, HeaderLost int
	// DownlinkBytes is the compressed payload size.
	DownlinkBytes int
}

// Report aggregates a campaign.
type Report struct {
	Baselines []BaselineResult
	// MeanPsi averages Psi over baselines.
	MeanPsi float64
	// TotalDownlinkBytes sums the compressed payloads.
	TotalDownlinkBytes int
	// Passes lists the ground-station passes flown when Config.PassBudget
	// is set; every product eventually flies.
	Passes []downlink.Pass
}

// Run flies the campaign.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext flies the campaign under ctx: cancellation propagates into
// every baseline's pool submissions, so a signal-cancelled root context
// aborts the campaign instead of finishing it.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var pre core.SeriesPreprocessor
	if cfg.Preprocess != nil {
		a, err := core.NewAlgoNGST(*cfg.Preprocess)
		if err != nil {
			return nil, err
		}
		a.Instrument(cfg.Telemetry)
		pre = a
	}
	pool, err := newPool(pre, cfg.Workers, cfg.TileSize, cfg.Telemetry, cfg.Logger)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	// The reference pool is the fault-free comparator; it stays
	// uninstrumented so pipeline_* metrics count only the flight path.
	// Both pools are built once and shared by every baseline, so worker
	// scratch stays warm across the campaign.
	refPool, err := newPool(nil, cfg.Workers, cfg.TileSize, nil, nil)
	if err != nil {
		return nil, err
	}
	defer refPool.Close()

	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 2
	}
	if conc > cfg.Baselines {
		conc = cfg.Baselines
	}
	results := make([]*BaselineResult, cfg.Baselines)
	errs := make([]error, cfg.Baselines)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for b := 0; b < cfg.Baselines; b++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[b], errs[b] = runBaseline(ctx, cfg, b, pool, refPool)
		}(b)
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mission: baseline %d: %w", b, err)
		}
	}

	rep := &Report{}
	var psiAcc metrics.Accumulator
	for _, res := range results {
		rep.Baselines = append(rep.Baselines, *res)
		rep.TotalDownlinkBytes += res.DownlinkBytes
		psiAcc.Add(res.Psi)
	}
	rep.MeanPsi = psiAcc.Mean()

	if cfg.PassBudget > 0 {
		sched := downlink.NewScheduler()
		for _, b := range rep.Baselines {
			// Cleaner baselines carry more science value per byte.
			prio := 1
			if b.Psi < 0.02 {
				prio = 2
			}
			if err := sched.Enqueue(downlink.Product{
				ID:       fmt.Sprintf("baseline_%03d", b.Index),
				Bytes:    b.DownlinkBytes,
				Priority: prio,
			}); err != nil {
				return nil, err
			}
		}
		for sched.Pending() > 0 {
			pass := sched.Plan(cfg.PassBudget)
			rep.Passes = append(rep.Passes, pass)
			if len(pass.Sent) == 0 {
				// A product larger than the budget would loop forever;
				// surface it instead.
				return nil, fmt.Errorf("mission: %d product(s) exceed the per-pass budget %d",
					sched.Pending(), cfg.PassBudget)
			}
		}
	}
	return rep, nil
}

func newPool(pre core.SeriesPreprocessor, workers, tile int, reg *telemetry.Registry, log *slog.Logger) (*cluster.Pool, error) {
	opts := []cluster.PoolOption{cluster.WithPoolTileSize(tile)}
	if reg != nil {
		opts = append(opts, cluster.WithPoolTelemetry(reg))
	}
	if log != nil {
		opts = append(opts, cluster.WithPoolLogger(log))
	}
	pool, err := cluster.NewPool(opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w, err := cluster.NewLocalWorker(pre, crreject.DefaultConfig())
		if err != nil {
			pool.Close()
			return nil, err
		}
		pool.AddWorker(w)
	}
	return pool, nil
}

// testHookBaselineStart, when non-nil, observes each baseline's start;
// the overlap test uses it to prove >1 baseline is in flight at once.
var testHookBaselineStart func(baseline int)

// stageSpan opens a per-baseline stage span under the baseline's trace
// root carried by ctx; the returned func ends it, and the span's duration
// also feeds the mission_<stage> histogram. With no registry it is a
// no-op.
func (c Config) stageSpan(ctx context.Context, stage string, baseline int) func() {
	if c.Telemetry == nil {
		return func() {}
	}
	tc, _ := telemetry.TraceFromContext(ctx)
	span := c.Telemetry.Tracer().StartSpan(tc, stage, fmt.Sprintf("baseline_%03d", baseline))
	hist := c.Telemetry.Histogram("mission_" + stage)
	return func() { span.EndTo(hist) }
}

func runBaseline(ctx context.Context, cfg Config, b int, pool, refPool *cluster.Pool) (*BaselineResult, error) {
	if testHookBaselineStart != nil {
		testHookBaselineStart(b)
	}
	// Mint the baseline's trace: every stage span, tile dispatch and
	// worker serve below parents under this root, and every log record
	// emitted under ctx carries its trace_id.
	var root *telemetry.TraceSpan
	if tracer := cfg.Telemetry.Tracer(); tracer != nil {
		root = tracer.StartTrace("baseline", fmt.Sprintf("baseline_%03d", b))
		ctx = telemetry.ContextWithTrace(ctx, tracer, root.Context())
		defer root.End()
	}

	endSynth := cfg.stageSpan(ctx, "synth", b)
	scene, err := synth.NewScene(cfg.Scene, rng.NewStream(cfg.Seed, uint64(b)*4))
	endSynth()
	if err != nil {
		return nil, err
	}
	endRef := cfg.stageSpan(ctx, "reference", b)
	reference := <-refPool.Submit(ctx, scene.Observed)
	endRef()
	if reference.Err != nil {
		return nil, reference.Err
	}

	// Damage the raw readouts in data memory.
	endInject := cfg.stageSpan(ctx, "inject", b)
	damaged := scene.Observed.Clone()
	fault.Uncorrelated{Gamma0: cfg.MemoryRate}.InjectStack(damaged, rng.NewStream(cfg.Seed, uint64(b)*4+1))
	endInject()

	result := &BaselineResult{Index: b}

	// Through the storage layer, with header damage and sanity repair.
	working := damaged
	if cfg.Dir != "" {
		endStore := cfg.stageSpan(ctx, "store", b)
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("baseline_%03d", b))
		if err := store.SaveBaseline(dir, damaged); err != nil {
			return nil, err
		}
		if err := damageHeaders(dir, cfg.HeaderRate, rng.NewStream(cfg.Seed, uint64(b)*4+2)); err != nil {
			return nil, err
		}
		loaded, loadRep, err := store.LoadBaseline(dir,
			fits.WithExpectedAxes(cfg.Scene.Width, cfg.Scene.Height))
		if err != nil {
			return nil, err
		}
		store.InterpolateLost(loaded, loadRep.Unrecoverable)
		endStore()
		working = loaded
		result.HeaderIssues = loadRep.HeaderIssues
		result.HeaderRepairs = loadRep.HeaderRepairs
		result.HeaderLost = len(loadRep.Unrecoverable)
	}

	endPipe := cfg.stageSpan(ctx, "pipeline", b)
	out := <-pool.Submit(ctx, working)
	endPipe()
	if out.Err != nil {
		return nil, out.Err
	}
	endScore := cfg.stageSpan(ctx, "score", b)
	result.Psi = metrics.RelativeError16(out.Image.Pix, reference.Image.Pix)
	endScore()
	result.CRHits, result.CRSteps = out.Stats.Hits, out.Stats.Steps
	result.DownlinkBytes = len(out.Compressed)

	// Fault forensics: with the fault-free reference in hand (ground
	// truth), a WARN records what preprocessing had to correct and how
	// close the product came back to truth.
	if cfg.Logger != nil && out.PreStats.Corrected > 0 {
		cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "preprocessing corrected input faults",
			slog.String("stage", "pipeline"),
			slog.Int("baseline", b),
			slog.Int("corrected_pixels", out.PreStats.Corrected),
			slog.Int("window_a_bits", out.PreStats.BitsWindowA),
			slog.Int("window_b_bits", out.PreStats.BitsWindowB),
			slog.Int("window_c_bit", out.PreStats.WindowCBit),
			slog.Int("guard_rejected", out.PreStats.GuardRejected),
			slog.Int("retries", out.Retries),
			slog.Float64("psi", result.Psi))
	}
	return result, nil
}

// damageHeaders flips bits in the first header block of every FITS file in
// dir.
func damageHeaders(dir string, rate float64, src *rng.Source) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	injector := fault.Uncorrelated{Gamma0: rate}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".fits" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(raw) < fits.BlockSize {
			continue
		}
		injector.InjectBytes(raw[:fits.BlockSize], src)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the report as a text table.
func (r *Report) Render() string {
	out := fmt.Sprintf("%4s  %10s  %7s  %7s  %14s  %10s\n",
		"base", "Psi", "CRhits", "hdrFix", "hdrLostFrames", "downlinkB")
	for _, b := range r.Baselines {
		out += fmt.Sprintf("%4d  %10.6f  %7d  %7d  %14d  %10d\n",
			b.Index, b.Psi, b.CRHits, b.HeaderRepairs, b.HeaderLost, b.DownlinkBytes)
	}
	out += fmt.Sprintf("mean Psi %.6f, total downlink %d bytes\n", r.MeanPsi, r.TotalDownlinkBytes)
	return out
}
