package main

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rice"
	"spaceproc/internal/rng"
	"spaceproc/internal/store"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// Settings shared by the NGST workloads: AlgoNGST at the paper's
// Upsilon = 4, Lambda = 80 over 128x128 tiles, and uncorrelated bit flips
// at Gamma0 = 0.01.
const (
	tileSize = 128
	gamma0   = 0.01
)

func ngstConfig() core.NGSTConfig { return core.NGSTConfig{Upsilon: 4, Sensitivity: 80} }

// ngst-baseline runs 512x512 frames of 64 readouts (16 tiles a baseline)
// from a ring of two inputs, so consecutive baselines differ. Each input
// costs two single-threaded reference pipelines to generate, so the ring
// is as small as alternation allows.
const (
	ngstSize     = 512
	ngstReadouts = 64
	ngstRing     = 2
)

// baseline is one generated, fault-injected baseline and its reference
// output.
type baseline struct {
	stack  *dataset.Stack
	digest store.Digest
	want   *dataset.Image
	wantC  []byte
	// psi is the reference image's error against the pipeline run on the
	// same baseline before fault injection.
	psi float64
}

// genBaselines synthesizes n baselines from seed, injects their faults and
// computes their reference outputs, one goroutine per CPU.
func genBaselines(seed uint64, n, size, readouts int) ([]*baseline, error) {
	pre, err := core.NewAlgoNGST(ngstConfig())
	if err != nil {
		return nil, err
	}
	rej, err := crreject.New(crreject.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out := make([]*baseline, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = genBaseline(seed, i, size, readouts, pre, rej)
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func genBaseline(seed uint64, i, size, readouts int, pre *core.AlgoNGST, rej *crreject.Rejector) (*baseline, error) {
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height, cfg.Readouts = size, size, readouts
	scene, err := synth.NewScene(cfg, rng.NewStream(seed, uint64(2*i)))
	if err != nil {
		return nil, err
	}
	faulty := scene.Observed.Clone()
	fault.Uncorrelated{Gamma0: gamma0}.InjectStack(faulty, rng.NewStream(seed, uint64(2*i+1)))
	want, wantC := referencePipeline(pre, rej, faulty)
	clean, _ := referencePipeline(pre, rej, scene.Observed)
	return &baseline{
		stack:  faulty,
		digest: store.StackDigest(faulty),
		want:   want,
		wantC:  wantC,
		psi:    metrics.RelativeError16(want.Pix, clean.Pix),
	}, nil
}

// referencePipeline is the in-process reference for one baseline, the
// recipe of loadgen's matchesLocal: preprocessing over the whole frame,
// CR-rejecting integration, Rice coding. Pixels are independent, so the
// tiled pool run must match it bit for bit.
func referencePipeline(pre *core.AlgoNGST, rej *crreject.Rejector, s *dataset.Stack) (*dataset.Image, []byte) {
	local := s.Clone()
	core.ProcessStackWith(pre, local)
	img, _ := rej.Integrate(local)
	return img, rice.Encode(img.Pix)
}

// matches reports whether an output equals the baseline's reference.
func (b *baseline) matches(img *dataset.Image, compressed []byte) bool {
	return img != nil && slices.Equal(img.Pix, b.want.Pix) && bytes.Equal(compressed, b.wantC)
}

// meanPsi averages psi over the baselines.
func meanPsi(in []*baseline) (float64, int) {
	var sum float64
	for _, b := range in {
		sum += b.psi
	}
	return sum / float64(len(in)), len(in)
}

// baselineCounts are the exact counts one correct baseline output carries.
func baselineCounts(pre core.VoteStats, cr crreject.Stats, img *dataset.Image, compressed []byte) map[string]float64 {
	return map[string]float64{
		"core.corrected_px":     float64(pre.Corrected),
		"core.guard_rejected":   float64(pre.GuardRejected),
		"crreject.steps_per_op": float64(cr.Steps),
		"rice.ratio":            ratio(float64(2*len(img.Pix)), float64(len(compressed))),
	}
}

// buildPool builds the Fig-1 pool the way spaceprocd does: cfg.workers
// LocalWorkers running AlgoNGST and the default CR rejection over 128x128
// tiles, reporting into reg when it is non-nil. A traced build (led
// non-nil) hands the pool the timing wrappers.
func buildPool(cfg runConfig, reg *telemetry.Registry, led *ledger) (*cluster.Pool, error) {
	algo, err := core.NewAlgoNGST(ngstConfig())
	if err != nil {
		return nil, err
	}
	opts := []cluster.PoolOption{cluster.WithPoolTileSize(tileSize)}
	if reg != nil {
		algo.Instrument(reg)
		opts = append(opts, cluster.WithPoolTelemetry(reg))
	}
	var pre core.SeriesPreprocessor = algo
	if led != nil {
		pre = &timedKernel{AlgoNGST: algo, led: led}
	}
	pool, err := cluster.NewPool(opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.workers; i++ {
		lw, err := cluster.NewLocalWorker(pre, crreject.DefaultConfig())
		if err != nil {
			pool.Close()
			return nil, err
		}
		var w cluster.Worker = lw
		if led != nil {
			w = &timedWorker{inner: lw, led: led}
		}
		if cfg.wrapWorker != nil {
			w = cfg.wrapWorker(w)
		}
		pool.AddWorker(w)
	}
	return pool, nil
}

// ngstBench is ngst-baseline: one closed-loop submitter feeding the Fig-1
// pool in process, so core, crreject and cluster do nearly all the work
// and neither the network nor the disk is touched.
type ngstBench struct {
	cfg    runConfig
	inputs []*baseline
	pool   *cluster.Pool
	p      *probe
}

func newNGSTBench(cfg runConfig) (bench, error) {
	in, err := genBaselines(cfg.seed, ngstRing, ngstSize, ngstReadouts)
	if err != nil {
		return nil, err
	}
	return &ngstBench{cfg: cfg, inputs: in}, nil
}

func (b *ngstBench) samplesPerOp() int   { return ngstSize * ngstSize * ngstReadouts }
func (b *ngstBench) clients() int        { return 1 }
func (b *ngstBench) psi() (float64, int) { return meanPsi(b.inputs) }
func (b *ngstBench) probe() *probe       { return b.p }

func (b *ngstBench) boot(traced bool) (time.Duration, bool, error) {
	var reg *telemetry.Registry
	b.p = nil
	if traced {
		b.p = newProbe()
		reg = b.p.reg
	}
	start := time.Now()
	pool, err := buildPool(b.cfg, reg, b.p.ledger())
	if err != nil {
		return 0, false, err
	}
	b.pool = pool
	_, ok := b.op(0, 0)
	return time.Since(start), ok, nil
}

func (b *ngstBench) op(_, seq int) (time.Duration, bool) {
	idx := seq % len(b.inputs)
	in := b.inputs[idx]
	led := b.p.ledger()
	ctx := context.Background()
	var ot *opTrace
	if led != nil {
		ctx, ot = led.startOp(ctx, "baseline")
	}
	start := time.Now()
	ch := b.pool.Submit(ctx, in.stack)
	submitted := time.Now()
	res := <-ch
	done := time.Now()
	ok := res.Err == nil && in.matches(res.Image, res.Compressed)
	if ot != nil {
		ot.submitted = submitted
		led.finishOp(ot, done)
		if ok {
			led.output(idx, baselineCounts(res.PreStats, res.Stats, res.Image, res.Compressed))
		}
	}
	return done.Sub(start), ok
}

func (b *ngstBench) layers(w *window, set setFunc) error {
	poolLayers(b.p, w, b.cfg.workers, set)
	return sideLayers(b.inputs, set)
}

func (b *ngstBench) shutdown() {
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
	}
}
