package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// The paper notes that "the slack CPU time in the slave nodes can be very
// well utilized for a suitable fault-tolerance scheme" (Section 2.1) and
// that sensitivity trades precision against "overhead in execution time
// and associated power consumption" (Section 3.2). AdaptiveWorker makes
// that trade explicit: given a per-tile compute budget and a measured
// cost model, it runs the highest sensitivity that fits the slack.

// CostModel maps sensitivity levels to their measured per-series cost in
// arbitrary units (typically nanoseconds, measured by CalibrateCost or a
// benchmark). Levels must be ascending in Lambda.
type CostModel struct {
	// Lambdas are the available sensitivity levels, ascending.
	Lambdas []int
	// UnitCost[i] is the per-series cost of running at Lambdas[i].
	UnitCost []float64
}

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	if len(m.Lambdas) == 0 || len(m.Lambdas) != len(m.UnitCost) {
		return fmt.Errorf("cluster: cost model size mismatch (%d lambdas, %d costs)",
			len(m.Lambdas), len(m.UnitCost))
	}
	if !sort.IntsAreSorted(m.Lambdas) {
		return fmt.Errorf("cluster: cost model lambdas must be ascending")
	}
	for i, c := range m.UnitCost {
		if c < 0 {
			return fmt.Errorf("cluster: negative cost at level %d", i)
		}
	}
	return nil
}

// Pick returns the highest sensitivity whose estimated tile cost
// (unit cost x series count) fits the budget, or the lowest level when
// nothing fits (the Lambda floor still buys the header sanity analysis).
func (m CostModel) Pick(budget float64, seriesCount int) int {
	best := m.Lambdas[0]
	for i, lambda := range m.Lambdas {
		if m.UnitCost[i]*float64(seriesCount) <= budget {
			best = lambda
		}
	}
	return best
}

// AdaptiveConfig parameterizes an AdaptiveWorker, mirroring how NGSTConfig
// and OTISConfig configure the core algorithms.
type AdaptiveConfig struct {
	// Model is the measured per-series cost of each sensitivity level.
	Model CostModel
	// Upsilon is the number of neighbors each pixel consults; it must be
	// even and >= 2 (see core.NGSTConfig).
	Upsilon int
	// Budget is the per-tile compute allowance, in the cost model's
	// units; it must be non-negative.
	Budget float64
	// Rejection configures the cosmic-ray rejector that integrates the
	// preprocessed tile.
	Rejection crreject.Config
	// Telemetry, when non-nil, records the chosen sensitivity
	// (adaptive_lambda gauge) and processed-tile counter into the
	// registry.
	Telemetry *telemetry.Registry
}

// DefaultAdaptiveConfig returns a config over the given model with the
// paper's Upsilon = 4 and the default rejection parameters. The zero
// Budget pins the worker at the model's lowest sensitivity until the
// caller sets a real allowance.
func DefaultAdaptiveConfig(model CostModel) AdaptiveConfig {
	return AdaptiveConfig{Model: model, Upsilon: 4, Rejection: crreject.DefaultConfig()}
}

// Validate reports whether the configuration is usable.
func (c AdaptiveConfig) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Upsilon < 2 || c.Upsilon%2 != 0 {
		return fmt.Errorf("cluster: Upsilon must be even and >= 2, got %d", c.Upsilon)
	}
	if c.Budget < 0 {
		return fmt.Errorf("cluster: negative budget %v", c.Budget)
	}
	return nil
}

// AdaptiveWorker preprocesses each tile at the highest sensitivity its
// budget allows, then integrates.
type AdaptiveWorker struct {
	cfg AdaptiveConfig
	rej *crreject.Rejector

	// lastLambda records the sensitivity chosen for the most recent tile
	// (observable for tests and telemetry).
	lastLambda atomic.Int64

	lambdaGauge *telemetry.Gauge
	tilesSeen   *telemetry.Counter
}

var _ Worker = (*AdaptiveWorker)(nil)

// NewAdaptive validates cfg and builds the worker.
func NewAdaptive(cfg AdaptiveConfig) (*AdaptiveWorker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rej, err := crreject.New(cfg.Rejection)
	if err != nil {
		return nil, err
	}
	w := &AdaptiveWorker{cfg: cfg, rej: rej}
	if cfg.Telemetry != nil {
		w.lambdaGauge = cfg.Telemetry.Gauge("adaptive_lambda")
		w.tilesSeen = cfg.Telemetry.Counter("adaptive_tiles_total")
	}
	return w, nil
}

// LastLambda returns the sensitivity used for the most recent tile.
func (w *AdaptiveWorker) LastLambda() int { return int(w.lastLambda.Load()) }

// ProcessTile implements Worker.
func (w *AdaptiveWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if t.Stack == nil || t.Stack.Len() == 0 {
		return TileResult{}, fmt.Errorf("cluster: empty tile")
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	seriesCount := t.Stack.Width() * t.Stack.Height()
	lambda := w.cfg.Model.Pick(w.cfg.Budget, seriesCount)
	w.lastLambda.Store(int64(lambda))
	if w.lambdaGauge != nil {
		w.lambdaGauge.Set(float64(lambda))
		w.tilesSeen.Inc()
	}
	res := TileResult{Index: t.Index, X0: t.X0, Y0: t.Y0}
	if lambda > 0 {
		pre, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: w.cfg.Upsilon, Sensitivity: lambda})
		if err != nil {
			return TileResult{}, err
		}
		if err := preprocess(ctx, pre, t.Stack, 1, &res.PreStats); err != nil {
			return TileResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	res.Image, res.Stats = w.rej.Integrate(t.Stack)
	return res, nil
}
