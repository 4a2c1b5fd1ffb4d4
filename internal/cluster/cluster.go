// Package cluster implements the paper's Figure 1 system architecture: the
// onboard CR-rejection pipeline estimated by STScI as a 16-processor
// COTS workstation. A master fragments each 1024x1024 baseline into 128x128
// pixel segments, hands them to slave workers for preprocessing and
// cosmic-ray rejection, reintegrates the processed fragments, and
// Rice-compresses the result for downlink.
//
// Two transports are provided: an in-process pool (goroutines) and a
// TCP/gob transport (see transport.go) standing in for the Myrinet
// interconnect. The master is the long-lived Pool (see pool.go): Submit
// queues a baseline's tiles as windows onto the caller's stack, each
// runner copies a window out into its warm stack right before the worker
// runs it, workers join and leave at runtime behind per-worker circuit
// breakers, and the returned channel delivers the reassembled, compressed
// Result.
//
// The pipeline is observable: pass WithPoolTelemetry to NewPool and it
// records per-tile dispatch/process/retry/blit spans, per-worker latency
// histograms keyed by stable worker ID, scheduler health gauges and stage
// counters into the registry (see internal/telemetry). Without a registry
// the instrumentation compiles down to nil checks on the hot path.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"spaceproc/internal/core"
	"spaceproc/internal/crreject"
	"spaceproc/internal/dataset"
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
	// ctx between pixel chunks of both passes, and the TCP transport
	// propagates the deadline to the remote node.
	//
	// The worker owns t.Stack for the call and may repair it in place,
	// but must not keep it, or any of its frames or pixels, after it
	// returns: the pool gathers the runner's next tile into the same
	// stack.
	ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error)
}

// LocalWorker runs the slave-node computation in process: input
// preprocessing over every coordinate's temporal series, then cosmic-ray
// rejection and integration.
//
// Both passes run chunk by chunk over the flattened pixel range: the
// preprocessor's ProcessStackPlanes range kernel, then the rejector's
// IntegrateRange on the same chunk, through pooled per-shard scratch
// buffers, so the steady-state path allocates only the output image; see
// WithShards for the intra-worker range parallelism the pooling enables.
type LocalWorker struct {
	pre    core.SeriesPreprocessor // nil disables preprocessing
	rej    *crreject.Rejector
	shards int
}

var _ Worker = (*LocalWorker)(nil)

// LocalWorkerOption configures a LocalWorker.
type LocalWorkerOption func(*LocalWorker)

// WithShards sets the worker's intra-tile parallelism: the tile's
// flattened pixel range is split across n goroutines on 64-pixel
// boundaries, each preprocessing and integrating its own range with its
// own scratch and stats collectors. n
// is clamped to [1, GOMAXPROCS]; passing 0 selects GOMAXPROCS (auto).
// The default of 1 preserves the classic one-goroutine-per-tile
// behavior, which is right when the master already runs one goroutine
// per worker across many workers; shards help when a deployment runs few
// workers on many cores and single-tile latency matters.
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
// chunks of both the vote and the integration, so an abandoned tile stops
// within one chunk's work.
func (w *LocalWorker) ProcessTile(ctx context.Context, t dataset.Tile) (TileResult, error) {
	if err := checkTile(t); err != nil {
		return TileResult{}, err
	}
	res := TileResult{Index: t.Index, X0: t.X0, Y0: t.Y0}
	if err := preprocess(ctx, w.pre, w.rej, t.Stack, w.shards, &res); err != nil {
		return TileResult{}, err
	}
	return res, nil
}

// checkTile rejects a tile the kernels cannot index safely (see
// dataset.Stack.Check). A tile decoded off the worker port is whatever
// the peer sent, so every worker checks before it indexes.
func checkTile(t dataset.Tile) error {
	if err := t.Stack.Check(); err != nil {
		return fmt.Errorf("cluster: tile %d: %w", t.Index, err)
	}
	return nil
}

// shardScratch is the warm workspace one shard checks out of scratchPool
// per tile: the vote kernel's and the rejector's. Workers reuse warm
// buffers across every tile they process while staying safe for
// concurrent callers.
type shardScratch struct {
	vote *core.VoteScratch
	cr   crreject.Scratch
}

var scratchPool = sync.Pool{New: func() any { return &shardScratch{vote: core.NewVoteScratch()} }}

// preprocess repairs the stack with pre (nil skips the vote) and
// integrates it with rej into res.Image, res.Stats and res.PreStats,
// splitting the flattened pixel index space across up to shards
// goroutines on 64-pixel boundaries. A plane word of the AlgoNGST kernel
// holds 4, 2 or 1 pixels (by depth), so a seam never splits one, though
// bit identity with the sequential pass does not depend on that: each
// pixel's vote reads only its own series. Each shard checks a warm
// scratch out of the pool and accumulates into its own stats; the shard
// stats merge into res in shard order when every shard is done. Series
// at distinct coordinates are independent and shards own disjoint pixel
// ranges, so no synchronization beyond the final join is needed.
func preprocess(ctx context.Context, pre core.SeriesPreprocessor, rej *crreject.Rejector, s *dataset.Stack, shards int, res *TileResult) error {
	res.Image = dataset.NewImage(s.Width(), s.Height())
	npix := len(res.Image.Pix)
	words := (npix + 63) / 64
	shards = min(shards, words)
	if shards <= 1 {
		return processRange(ctx, pre, rej, s, 0, npix, res.Image, &res.PreStats, &res.Stats)
	}
	wordsPer := (words + shards - 1) / shards
	errs := make([]error, shards)
	votes := make([]core.VoteStats, shards)
	crs := make([]crreject.Stats, shards)
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
			errs[i] = processRange(ctx, pre, rej, s, p0, p1, res.Image, &votes[i], &crs[i])
		}(i, p0, p1)
	}
	wg.Wait()
	for i := range votes {
		res.PreStats.Add(votes[i])
		res.Stats.Add(crs[i])
	}
	return errors.Join(errs...)
}

// rangeChunk is the cancellation granularity inside a shard: processRange
// polls ctx between chunks of this many pixels, comparable to a handful
// of classic 128-wide row passes, so an abandoned tile still stops
// promptly without a ctx check on every pixel. It is a multiple of every
// plane word's pixel count.
const rangeChunk = 4096

// processRange repairs and integrates the flattened coordinate range
// [p0, p1) of s into out, one chunk at a time through a scratch checked
// out of the pool: a ProcessStackPlanes call (skipped when pre is nil)
// and then an IntegrateRange call on the same chunk. Both read and write
// only pixels inside their range, so each chunk is integrated from its
// final repaired readouts and disjoint ranges run concurrently. The two
// stay separate calls so a wrapped kernel can time the vote alone.
func processRange(ctx context.Context, pre core.SeriesPreprocessor, rej *crreject.Rejector, s *dataset.Stack, p0, p1 int, out *dataset.Image, vote *core.VoteStats, cr *crreject.Stats) error {
	sc := scratchPool.Get().(*shardScratch)
	defer scratchPool.Put(sc)
	for q0 := p0; q0 < p1; q0 += rangeChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		q1 := min(q0+rangeChunk, p1)
		if pre != nil {
			pre.ProcessStackPlanes(s, q0, q1, sc.vote, vote)
		}
		rej.IntegrateRange(s, q0, q1, out, &sc.cr, cr)
	}
	return nil
}

// Result is the pool's output for one baseline.
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
	// Err is set when the baseline failed (fragmentation error, a stack
	// with no tiles, joined permanent tile failures, cancellation, or pool
	// shutdown); the other fields are zero. Pool.Submit delivers failed
	// runs this way so one channel carries both outcomes.
	Err error
}

// CompressionRatio returns input bytes over downlink bytes.
func (r *Result) CompressionRatio() float64 {
	if len(r.Compressed) == 0 {
		return 1
	}
	return float64(2*len(r.Image.Pix)) / float64(len(r.Compressed))
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

// blit copies a tile image into the frame.
func blit(dst *dataset.Image, res TileResult) {
	for y := 0; y < res.Image.Height; y++ {
		dstOff := (res.Y0+y)*dst.Width + res.X0
		copy(dst.Pix[dstOff:dstOff+res.Image.Width], res.Image.Pix[y*res.Image.Width:(y+1)*res.Image.Width])
	}
}
