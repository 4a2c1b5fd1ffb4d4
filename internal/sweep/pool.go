package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// The pool experiment measures the scheduler's contribution to fault
// tolerance directly: a cluster where one node fails a fraction of its
// tiles must still produce bit-identical science (the Figure 1 pipeline's
// whole premise), paying only in retries and quarantine cycles. It also
// exercises the pool as a long-lived object the way a flight system would:
// one pool serves every point of the sweep, with the faulty node swapped
// in and out through dynamic membership.

// poolFaultAxis is the per-tile failure probability of the crashy worker.
var poolFaultAxis = []float64{0, 0.25, 0.5, 1}

// poolBreakerThreshold is the flight pool's circuit breaker trip point:
// this many consecutive failures quarantine a worker.
const poolBreakerThreshold = 2

// PoolSweepConfig parameterizes the worker-fault sweep.
type PoolSweepConfig struct {
	// Trials is the number of baselines submitted per measured point; they
	// are pipelined through the pool concurrently.
	Trials int
	// Workers is the healthy worker count (the crashy node is added on
	// top of these).
	Workers int
	// TileSize is the fragment edge length.
	TileSize int
	// Scene is the per-baseline synthesis configuration.
	Scene synth.SceneConfig
	// Telemetry, when non-nil, receives the pool's scheduler gauges and
	// circuit counters; when nil the experiment uses a private registry
	// (it needs the circuit counters for its own series).
	Telemetry *telemetry.Registry
}

// DefaultPoolSweepConfig returns a small sweep suitable for tests and the
// experiments binary.
func DefaultPoolSweepConfig() PoolSweepConfig {
	scene := synth.DefaultSceneConfig()
	scene.Width, scene.Height = 64, 64
	scene.Readouts = 16
	return PoolSweepConfig{Trials: 4, Workers: 3, TileSize: 32, Scene: scene}
}

// Validate reports whether the configuration is usable.
func (c PoolSweepConfig) Validate() error {
	switch {
	case c.Trials <= 0:
		return fmt.Errorf("sweep: trials must be positive, got %d", c.Trials)
	case c.Workers <= 0:
		return fmt.Errorf("sweep: workers must be positive, got %d", c.Workers)
	case c.TileSize <= 0:
		return fmt.Errorf("sweep: tile size must be positive, got %d", c.TileSize)
	}
	if err := c.Scene.Validate(); err != nil {
		return err
	}
	// At pf = 1 each held healthy worker parks one tile (see holdGate), so
	// the crashy node only sees tiles if a point has more than Workers.
	if tiles := c.Trials * (c.Scene.Width / c.TileSize) * (c.Scene.Height / c.TileSize); tiles <= c.Workers {
		return fmt.Errorf("sweep: %d tiles per point cannot reach the crashy node past %d healthy workers", tiles, c.Workers)
	}
	return nil
}

// crashyWorker fails each tile with a seeded probability, standing in for
// a flaky slave node. Each tile it sees counts down hold, when set.
type crashyWorker struct {
	inner cluster.Worker
	prob  float64
	hold  *holdGate

	mu  sync.Mutex
	src *rng.Source
}

func (w *crashyWorker) ProcessTile(ctx context.Context, t dataset.Tile) (cluster.TileResult, error) {
	w.mu.Lock()
	roll := w.src.Float64()
	w.mu.Unlock()
	if w.hold != nil {
		w.hold.seen()
	}
	if roll < w.prob {
		return cluster.TileResult{}, errors.New("sweep: injected worker crash")
	}
	return w.inner.ProcessTile(ctx, t)
}

// holdGate keeps the healthy workers off the tiles at the pf = 1 point
// until the crashy node has failed poolBreakerThreshold of them. The pool
// hands each tile to whichever runner is free, so without the gate an
// unlucky schedule lets the healthy workers take every tile and the
// always-failing node never trips its circuit. While the gate is shut,
// each healthy worker parks one tile; the crashy node's failures requeue
// the rest to it, as only it is free.
type holdGate struct {
	mu   sync.Mutex
	left int
	open chan struct{}
}

// shut closes the gate until n tiles have been seen.
func (g *holdGate) shut(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.left, g.open = n, make(chan struct{})
}

// seen counts one crashy-node tile, opening the gate on the last one.
func (g *holdGate) seen() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.left > 0 {
		if g.left--; g.left == 0 {
			close(g.open)
		}
	}
}

// wait blocks while the gate is shut.
func (g *holdGate) wait(ctx context.Context) error {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	if open == nil {
		return nil
	}
	select {
	case <-open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heldWorker is a healthy node that passes its gate before each tile.
type heldWorker struct {
	inner cluster.Worker
	hold  *holdGate
}

func (w heldWorker) ProcessTile(ctx context.Context, t dataset.Tile) (cluster.TileResult, error) {
	if err := w.hold.wait(ctx); err != nil {
		return cluster.TileResult{}, err
	}
	return w.inner.ProcessTile(ctx, t)
}

// FigPool sweeps the crashy node's per-tile failure probability and
// reports the science error against a fault-free reference (MeanPsi must
// stay zero — worker faults are masked, not averaged in), the charged
// retries per baseline, and the circuit-open count at each point.
func FigPool(cfg PoolSweepConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "figpool")()
	res := &Result{
		ID:     "pool",
		Title:  "worker-fault tolerance: one crashy node in the shared pool",
		XLabel: "per-tile fault probability",
		YLabel: "MeanPsi / MeanRetries / CircuitOpens",
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	newLocal := func() (cluster.Worker, error) {
		return cluster.NewLocalWorker(nil, crreject.DefaultConfig())
	}
	pool, err := cluster.NewPool(
		cluster.WithPoolTileSize(cfg.TileSize),
		cluster.WithBreaker(poolBreakerThreshold, time.Millisecond, 10*time.Millisecond),
		cluster.WithPoolTelemetry(reg))
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	hold := new(holdGate)
	for i := 0; i < cfg.Workers; i++ {
		w, err := newLocal()
		if err != nil {
			return nil, err
		}
		pool.AddWorker(heldWorker{inner: w, hold: hold})
	}
	// The fault-free comparator pool is built once and reused across every
	// point, exactly like the mission layer's reference pool.
	refPool, err := cluster.NewPool(cluster.WithPoolTileSize(cfg.TileSize))
	if err != nil {
		return nil, err
	}
	defer refPool.Close()
	for i := 0; i < cfg.Workers; i++ {
		w, err := newLocal()
		if err != nil {
			return nil, err
		}
		refPool.AddWorker(w)
	}

	psiSeries := Series{Name: "MeanPsi"}
	retrySeries := Series{Name: "MeanRetries"}
	opensSeries := Series{Name: "CircuitOpens"}
	for pi, pf := range poolFaultAxis {
		inner, err := newLocal()
		if err != nil {
			return nil, err
		}
		crashy := &crashyWorker{inner: inner, prob: pf, src: rng.NewStream(seed, uint64(pi)*997)}
		if pf >= 1 {
			hold.shut(poolBreakerThreshold)
			crashy.hold = hold
		}
		id := pool.AddWorker(crashy)
		opensBefore := reg.Snapshot().Counters["pipeline_pool_circuit_open_total"]

		type trialOut struct {
			psi     float64
			retries int
			err     error
		}
		outs := make([]trialOut, cfg.Trials)
		var wg sync.WaitGroup
		for trial := 0; trial < cfg.Trials; trial++ {
			wg.Add(1)
			go func(trial int) {
				defer wg.Done()
				sc, err := synth.NewScene(cfg.Scene, rng.NewStream(seed, uint64(pi*cfg.Trials+trial)*2))
				if err != nil {
					outs[trial].err = err
					return
				}
				ref := <-refPool.Submit(context.Background(), sc.Observed)
				if ref.Err != nil {
					outs[trial].err = ref.Err
					return
				}
				flight := <-pool.Submit(context.Background(), sc.Observed)
				if flight.Err != nil {
					outs[trial].err = flight.Err
					return
				}
				outs[trial].psi = metrics.RelativeError16(flight.Image.Pix, ref.Image.Pix)
				outs[trial].retries = flight.Retries
			}(trial)
		}
		wg.Wait()
		if !pool.RemoveWorker(id) {
			return nil, fmt.Errorf("sweep: crashy worker %s vanished from the pool", id)
		}

		var psiAcc, retryAcc metrics.Accumulator
		for _, o := range outs {
			if o.err != nil {
				return nil, o.err
			}
			psiAcc.Add(o.psi)
			retryAcc.Add(float64(o.retries))
		}
		opens := reg.Snapshot().Counters["pipeline_pool_circuit_open_total"] - opensBefore
		psiSeries.Points = append(psiSeries.Points, Point{X: pf, Y: psiAcc.Mean()})
		retrySeries.Points = append(retrySeries.Points, Point{X: pf, Y: retryAcc.Mean()})
		opensSeries.Points = append(opensSeries.Points, Point{X: pf, Y: float64(opens)})
	}
	res.Series = []Series{psiSeries, retrySeries, opensSeries}
	return res, nil
}
