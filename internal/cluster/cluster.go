// Package cluster implements the paper's Figure 1 system architecture: the
// onboard CR-rejection pipeline estimated by STScI as a 16-processor
// COTS workstation. A master fragments each 1024x1024 baseline into 128x128
// pixel segments, hands them to slave workers for preprocessing and
// cosmic-ray rejection, reintegrates the processed fragments, and
// Rice-compresses the result for downlink.
//
// Two transports are provided: an in-process pool (goroutines) and a
// TCP/gob transport (see transport.go) standing in for the Myrinet
// interconnect. Scheduling lives in the long-lived Pool (see pool.go):
// workers join and leave at runtime, a circuit breaker quarantines nodes
// that keep failing, and a bounded shared queue pipelines many baselines
// concurrently. Master remains as a thin per-baseline client of a Pool
// for the classic one-baseline-at-a-time call sites.
//
// The pipeline is observable: pass WithTelemetry to NewMaster (or
// WithPoolTelemetry to NewPool) and it records per-tile
// dispatch/process/retry/blit spans, per-worker latency histograms keyed
// by stable worker ID, scheduler health gauges and stage counters into
// the registry (see internal/telemetry). Without a registry the
// instrumentation compiles down to nil checks on the hot path.
package cluster

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// DefaultWorkers is the paper's 16-processor estimate.
const DefaultWorkers = 16

// TileResult is a worker's output for one tile.
type TileResult struct {
	// Index and X0/Y0 locate the tile in the parent frame.
	Index  int
	X0, Y0 int
	// Image is the integrated (CR-rejected) tile.
	Image *dataset.Image
	// Stats carries the tile's rejection statistics.
	Stats crreject.Stats
	// PreStats carries the preprocessing telemetry when the worker's
	// preprocessor collects it (AlgoNGST does).
	PreStats core.VoteStats
}

// Worker processes one tile.
type Worker interface {
	// ProcessTile preprocesses and integrates a tile. Implementations
	// honor ctx cancellation and deadlines: the in-process workers poll
	// ctx between row passes, and the TCP transport propagates the
	// deadline to the remote node.
	ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error)
}

// LocalWorker runs the slave-node computation in process: input
// preprocessing over every coordinate's temporal series, then cosmic-ray
// rejection and integration.
//
// Preprocessing runs the preprocessor's ProcessStackPlanes range kernel
// through pooled per-shard scratch buffers, so the steady-state path
// performs zero heap allocations; see WithShards for the intra-worker
// range parallelism the pooling enables.
type LocalWorker struct {
	pre    core.SeriesPreprocessor // nil disables preprocessing
	rej    *crreject.Rejector
	shards int
}

var _ Worker = (*LocalWorker)(nil)

// LocalWorkerOption configures a LocalWorker.
type LocalWorkerOption func(*LocalWorker)

// WithShards sets the worker's intra-tile parallelism: the tile's
// flattened pixel range is split across n goroutines on 64-pixel word
// boundaries (the plane-major gather granularity), each with its own
// scratch and stats collector. n is clamped to [1, GOMAXPROCS]; passing 0
// selects GOMAXPROCS (auto). The default of 1 preserves the classic
// one-goroutine-per-tile behavior, which is right when the master already
// runs one goroutine per worker across many workers; shards help when a
// deployment runs few workers on many cores and single-tile latency
// matters.
func WithShards(n int) LocalWorkerOption {
	return func(w *LocalWorker) { w.shards = n }
}

// NewLocalWorker builds a worker. pre may be nil to skip preprocessing (the
// no-preprocessing baseline).
func NewLocalWorker(pre core.SeriesPreprocessor, rejCfg crreject.Config, opts ...LocalWorkerOption) (*LocalWorker, error) {
	rej, err := crreject.New(rejCfg)
	if err != nil {
		return nil, err
	}
	w := &LocalWorker{pre: pre, rej: rej, shards: 1}
	for _, o := range opts {
		o(w)
	}
	if max := runtime.GOMAXPROCS(0); w.shards <= 0 || w.shards > max {
		w.shards = max
	}
	return w, nil
}

// Shards reports the worker's resolved intra-tile parallelism.
func (w *LocalWorker) Shards() int { return w.shards }

// ProcessTile implements Worker. Cancellation is polled between pixel
// chunks, so an abandoned tile stops within one chunk's work.
func (w *LocalWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if t.Stack == nil || t.Stack.Len() == 0 {
		return TileResult{}, errors.New("cluster: empty tile")
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	res := TileResult{Index: t.Index, X0: t.X0, Y0: t.Y0}
	if w.pre != nil {
		if err := preprocess(ctx, w.pre, t.Stack, w.shards, &res.PreStats); err != nil {
			return TileResult{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return TileResult{}, err
	}
	res.Image, res.Stats = w.rej.Integrate(t.Stack)
	return res, nil
}

// scratchPool holds *core.VoteScratch values: one is checked out per tile
// (per shard, when sharded), so workers reuse warm buffers across every
// tile they process while staying safe for concurrent callers.
var scratchPool = sync.Pool{New: func() any { return core.NewVoteScratch() }}

// preprocess runs pre over the whole stack, splitting the flattened pixel
// index space across up to shards goroutines on 64-pixel word boundaries,
// the gather granularity of the plane-major kernels — so bit-sliced words
// never straddle a shard seam and the sharded pass stays bit-identical to
// the sequential one. Each shard checks a warm scratch out of the pool and
// accumulates into its own VoteStats; the shard stats merge into agg in
// shard order when every shard is done. Series at distinct coordinates
// are independent and shards own disjoint pixel ranges, so no
// synchronization beyond the final join is needed.
func preprocess(ctx context.Context, pre core.SeriesPreprocessor, s *dataset.Stack, shards int, agg *core.VoteStats) error {
	npix := s.Width() * s.Height()
	if npix == 0 {
		return nil
	}
	words := (npix + 63) / 64
	shards = min(shards, words)
	if shards <= 1 {
		return processRange(ctx, pre, s, 0, npix, agg)
	}
	wordsPer := (words + shards - 1) / shards
	errs := make([]error, shards)
	stats := make([]core.VoteStats, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		p0 := i * wordsPer * 64
		p1 := min(p0+wordsPer*64, npix)
		if p0 >= p1 {
			continue
		}
		wg.Add(1)
		go func(i, p0, p1 int) {
			defer wg.Done()
			errs[i] = processRange(ctx, pre, s, p0, p1, &stats[i])
		}(i, p0, p1)
	}
	wg.Wait()
	for i := range stats {
		agg.Add(stats[i])
	}
	return errors.Join(errs...)
}

// rangeChunk is the cancellation granularity inside a shard: processRange
// polls ctx between chunks of this many pixels, comparable to a handful
// of classic 128-wide row passes, so an abandoned tile still stops
// promptly without a ctx check on every pixel.
const rangeChunk = 4096

// processRange repairs the flattened coordinate range [p0, p1) of s with
// one ProcessStackPlanes call per chunk, through a scratch checked out of
// the pool. The kernel writes only pixels inside the range, so disjoint
// ranges run concurrently.
func processRange(ctx context.Context, pre core.SeriesPreprocessor, s *dataset.Stack, p0, p1 int, stats *core.VoteStats) error {
	sc := scratchPool.Get().(*core.VoteScratch)
	defer scratchPool.Put(sc)
	for q0 := p0; q0 < p1; q0 += rangeChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		pre.ProcessStackPlanes(s, q0, min(q0+rangeChunk, p1), sc, stats)
	}
	return nil
}

// Result is the master's output for one baseline.
type Result struct {
	// Image is the reintegrated full-frame image.
	Image *dataset.Image
	// Compressed is the Rice-compressed downlink payload.
	Compressed []byte
	// Stats aggregates rejection statistics over all tiles.
	Stats crreject.Stats
	// PreStats aggregates preprocessing telemetry over all tiles.
	PreStats core.VoteStats
	// Retries counts tiles that had to be reassigned after a worker
	// failure (only charged failures; tiles drained off a quarantined
	// worker while healthy peers remained are not counted).
	Retries int
	// Err is set when the baseline failed (fragmentation error, joined
	// permanent tile failures, cancellation, or pool shutdown); the other
	// fields are zero. Pool.Submit delivers failed runs this way so one
	// channel carries both outcomes; Master.RunContext unwraps it.
	Err error
}

// CompressionRatio returns input bytes over downlink bytes.
func (r *Result) CompressionRatio() float64 {
	if len(r.Compressed) == 0 {
		return 1
	}
	return float64(2*len(r.Image.Pix)) / float64(len(r.Compressed))
}

// Master is the classic per-baseline front end, kept as a thin client of
// a Pool it owns: NewMaster admits the workers into a private pool and
// Run/RunContext submit one baseline and wait. New code that wants
// concurrent baselines, membership churn or health-gated scheduling
// should construct a Pool directly.
type Master struct {
	pool *Pool
}

// Span stages recorded by the pipeline; tests and dashboards key on these.
const (
	StageFragment = "fragment"
	StageDispatch = "dispatch"
	StageProcess  = "process"
	StageRetry    = "retry"
	StageBlit     = "blit"
	StageCompress = "compress"
	StageRun      = "run"
)

// masterConfig collects the MasterOption knobs before they translate into
// PoolOptions.
type masterConfig struct {
	tileSize int
	retries  int
	tel      *telemetry.Registry
	log      *slog.Logger
}

// MasterOption configures a Master.
type MasterOption func(*masterConfig)

// WithTileSize overrides the 128x128 fragment size.
func WithTileSize(n int) MasterOption {
	return func(c *masterConfig) { c.tileSize = n }
}

// WithRetries sets how many times a tile may be reassigned after worker
// failures before the baseline is abandoned.
func WithRetries(n int) MasterOption {
	return func(c *masterConfig) { c.retries = n }
}

// WithTelemetry wires the pipeline's instrumentation into reg: per-tile
// dispatch/process/retry/blit spans, per-worker process-latency histograms
// keyed by stable worker ID (pipeline_worker_<id>_process), pipeline_*
// counters, pool health gauges, and distributed trace events into the
// registry's Tracer (every dispatch, process, retry and deadline expiry
// becomes a TraceEvent parented under the run's trace).
func WithTelemetry(reg *telemetry.Registry) MasterOption {
	return func(c *masterConfig) { c.tel = reg }
}

// WithLogger routes the pipeline's fault forensics — WARN on every tile
// retry, ERROR on permanent tile failure — into l, trace-stamped when l's
// handler is telemetry-aware (see telemetry.NewLogHandler). Without it the
// master stays silent, as before.
func WithLogger(l *slog.Logger) MasterOption {
	return func(c *masterConfig) { c.log = l }
}

// NewMaster builds a master over the given workers: a compatibility
// constructor that admits the slice into a private Pool.
func NewMaster(workers []Worker, opts ...MasterOption) (*Master, error) {
	if len(workers) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	cfg := masterConfig{tileSize: dataset.TileSize, retries: 2}
	for _, o := range opts {
		o(&cfg)
	}
	popts := []PoolOption{WithPoolTileSize(cfg.tileSize), WithPoolRetries(cfg.retries)}
	if cfg.tel != nil {
		popts = append(popts, WithPoolTelemetry(cfg.tel))
	}
	if cfg.log != nil {
		popts = append(popts, WithPoolLogger(cfg.log))
	}
	pool, err := NewPool(popts...)
	if err != nil {
		return nil, err
	}
	for _, w := range workers {
		pool.AddWorker(w)
	}
	return &Master{pool: pool}, nil
}

// Pool exposes the master's underlying pool, for callers that start from
// the compatibility constructor and then want dynamic membership or
// concurrent submissions.
func (m *Master) Pool() *Pool { return m.pool }

// Close shuts down the master's pool and its worker runners. Masters used
// for a whole process lifetime (the common test and cmd pattern) may skip
// it; the runners park idle.
func (m *Master) Close() { m.pool.Close() }

// Run executes the pipeline on one baseline stack.
func (m *Master) Run(s *dataset.Stack) (*Result, error) {
	return m.RunContext(context.Background(), s)
}

// RunContext is Run with cancellation: when ctx is cancelled, in-flight
// tiles finish but no new tiles are dispatched, and the context's error is
// returned.
func (m *Master) RunContext(ctx context.Context, s *dataset.Stack) (*Result, error) {
	res := <-m.pool.Submit(ctx, s)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// blit copies a tile image into the frame.
func blit(dst *dataset.Image, res TileResult) {
	for y := 0; y < res.Image.Height; y++ {
		dstOff := (res.Y0+y)*dst.Width + res.X0
		copy(dst.Pix[dstOff:dstOff+res.Image.Width], res.Image.Pix[y*res.Image.Width:(y+1)*res.Image.Width])
	}
}

// cloneTile deep-copies a tile so retried jobs never see a half-processed
// stack.
func cloneTile(t dataset.Tile) dataset.Tile {
	return dataset.Tile{Index: t.Index, X0: t.X0, Y0: t.Y0, Stack: t.Stack.Clone()}
}
