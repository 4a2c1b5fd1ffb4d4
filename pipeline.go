package spaceproc

import (
	"time"

	"spaceproc/internal/alft"
	"spaceproc/internal/cluster"
	"spaceproc/internal/crreject"
	"spaceproc/internal/otisapp"
	"spaceproc/internal/rice"
)

// The Figure 1 master/worker pipeline (internal/cluster).
type (
	// Worker processes one tile.
	Worker = cluster.Worker
	// LocalWorker runs preprocessing + CR rejection in process.
	LocalWorker = cluster.LocalWorker
	// LocalWorkerOption configures a LocalWorker (see WithShards).
	LocalWorkerOption = cluster.LocalWorkerOption
	// PipelineResult is a WorkerPool's output for one baseline, delivered
	// by Submit; Err is set when the run failed.
	PipelineResult = cluster.Result
	// TileResult is a worker's output for one tile.
	TileResult = cluster.TileResult
	// WorkerServer exposes a Worker over TCP (the Myrinet stand-in).
	WorkerServer = cluster.Server
	// RemoteWorker is the master-side proxy for a TCP worker.
	RemoteWorker = cluster.RemoteWorker
	// CostModel maps sensitivity levels to measured per-series costs.
	CostModel = cluster.CostModel
	// AdaptiveWorker preprocesses each tile at the highest sensitivity
	// its compute budget allows (the Section 2.1 slack-CPU idea).
	AdaptiveWorker = cluster.AdaptiveWorker
	// WorkerPool is the Figure 1 master: it splits each submitted
	// baseline into tiles, schedules them over its workers (membership,
	// health gating, one shared job queue), then reassembles and
	// compresses. Submit borrows the stack until its Result is
	// delivered: tiles are windows onto it, copied out at each attempt,
	// so the caller must not write it before then.
	WorkerPool = cluster.Pool
	// WorkerPoolOption configures a WorkerPool.
	WorkerPoolOption = cluster.PoolOption
	// WorkerStatus is one worker's membership snapshot (ID, circuit
	// state, consecutive failures, current backoff).
	WorkerStatus = cluster.WorkerStatus
	// WorkerState is a worker's circuit-breaker state.
	WorkerState = cluster.WorkerState
	// DialOption configures a RemoteWorker's reconnect behavior.
	DialOption = cluster.DialOption
)

// Circuit-breaker states reported by WorkerPool.Workers.
const (
	WorkerHealthy     = cluster.WorkerHealthy
	WorkerQuarantined = cluster.WorkerQuarantined
	WorkerProbing     = cluster.WorkerProbing
)

// DefaultWorkers is the paper's 16-processor estimate.
const DefaultWorkers = cluster.DefaultWorkers

// NewLocalWorker builds an in-process worker; pre may be nil to skip
// preprocessing.
func NewLocalWorker(pre SeriesPreprocessor, rejCfg CRConfig, opts ...LocalWorkerOption) (*LocalWorker, error) {
	return cluster.NewLocalWorker(pre, rejCfg, opts...)
}

// WithShards sets a LocalWorker's intra-tile row parallelism (clamped to
// GOMAXPROCS; 0 selects GOMAXPROCS).
func WithShards(n int) LocalWorkerOption { return cluster.WithShards(n) }

// NewWorkerPool builds a long-lived scheduling pool. Add workers with
// AddWorker, pipeline baselines with Submit (res := <-pool.Submit(ctx, s),
// then check res.Err), and Close when done.
func NewWorkerPool(opts ...WorkerPoolOption) (*WorkerPool, error) { return cluster.NewPool(opts...) }

// WithPoolTileSize overrides the pool's 128x128 fragment size.
func WithPoolTileSize(n int) WorkerPoolOption { return cluster.WithPoolTileSize(n) }

// WithPoolRetries bounds per-tile reassignment after worker failures.
func WithPoolRetries(n int) WorkerPoolOption { return cluster.WithPoolRetries(n) }

// WithQueueDepth bounds the shared job queue (Submit blocks when full).
func WithQueueDepth(n int) WorkerPoolOption { return cluster.WithQueueDepth(n) }

// WithBreaker tunes the per-worker circuit breaker: quarantine after
// threshold consecutive failures, backing off from base up to max.
func WithBreaker(threshold int, base, max time.Duration) WorkerPoolOption {
	return cluster.WithBreaker(threshold, base, max)
}

// NewWorkerServer exposes a worker over TCP, optionally with telemetry and
// an observability sidecar (see WorkerServerOption).
func NewWorkerServer(w Worker, opts ...WorkerServerOption) *WorkerServer {
	return cluster.NewServer(w, opts...)
}

// DialWorker connects the master to a TCP worker; the proxy re-dials with
// backoff when the connection drops (see WithDialBackoff).
func DialWorker(addr string, opts ...DialOption) (*RemoteWorker, error) {
	return cluster.Dial(addr, opts...)
}

// WithDialBackoff tunes a RemoteWorker's reconnect loop: attempts dials
// per connect, sleeping base (doubling each attempt) between them.
func WithDialBackoff(attempts int, base time.Duration) DialOption {
	return cluster.WithDialBackoff(attempts, base)
}

// Cosmic-ray rejection (the NGST application; internal/crreject).
type (
	// CRConfig parameterizes step detection.
	CRConfig = crreject.Config
	// CRRejector integrates baselines with cosmic-ray removal.
	CRRejector = crreject.Rejector
	// CRStats summarizes one integration.
	CRStats = crreject.Stats
)

// DefaultCRConfig returns the pipeline's rejection parameters.
func DefaultCRConfig() CRConfig { return crreject.DefaultConfig() }

// NewCRRejector validates cfg and returns a rejector.
func NewCRRejector(cfg CRConfig) (*CRRejector, error) { return crreject.New(cfg) }

// Rice compression (the downlink coder; internal/rice).

// RiceEncode compresses 16-bit samples (delta + Rice coding with per-block
// adaptive k and a verbatim escape).
func RiceEncode(samples []uint16) []byte { return rice.Encode(samples) }

// RiceDecode reverses RiceEncode.
func RiceDecode(data []byte) ([]uint16, error) { return rice.Decode(data) }

// RiceRatio returns the compression ratio achieved on samples.
func RiceRatio(samples []uint16) float64 { return rice.Ratio(samples) }

// RiceEncodeFloat32 compresses an IEEE-754 float32 stream (OTIS radiance),
// coding the high and low 16-bit halves as separate Rice streams.
func RiceEncodeFloat32(samples []float32) []byte { return rice.EncodeFloat32(samples) }

// RiceDecodeFloat32 reverses RiceEncodeFloat32.
func RiceDecodeFloat32(data []byte) ([]float32, error) { return rice.DecodeFloat32(data) }

// OTIS retrieval (the OTIS application; internal/otisapp).
type (
	// OTISRetrievalConfig parameterizes the temperature/emissivity
	// retrieval.
	OTISRetrievalConfig = otisapp.Config
	// OTISRetriever converts radiance cubes into science products.
	OTISRetriever = otisapp.Retriever
	// OTISOutput is a retrieved temperature map plus emissivity cube.
	OTISOutput = otisapp.Output
)

// DefaultOTISRetrievalConfig returns the retrieval defaults for the bands.
func DefaultOTISRetrievalConfig(wavelengths []float64) OTISRetrievalConfig {
	return otisapp.DefaultConfig(wavelengths)
}

// NewOTISRetriever validates cfg and returns a retriever.
func NewOTISRetriever(cfg OTISRetrievalConfig) (*OTISRetriever, error) { return otisapp.New(cfg) }

// TempError returns the mean absolute temperature error in Kelvin.
func TempError(got, want []float64) float64 { return otisapp.TempError(got, want) }

// Application-Level Fault Tolerance (internal/alft), specialized to the
// OTIS retrieval as in the paper's Section 7.
type (
	// OTISALFT runs a primary/secondary OTIS retrieval under acceptance
	// filters with logic-grid output selection.
	OTISALFT = alft.Executor[*Cube, *OTISOutput]
	// OTISFilter is a named acceptance check over a retrieval output.
	OTISFilter = alft.Filter[*OTISOutput]
	// ALFTReport describes one primary/secondary execution.
	ALFTReport = alft.Report
	// ALFTChoice identifies which output the logic grid released.
	ALFTChoice = alft.Choice
)

// Logic-grid outcomes.
const (
	ChosePrimary   = alft.ChosePrimary
	ChoseSecondary = alft.ChoseSecondary
	ChoseDegraded  = alft.ChoseDegraded
)

// TempBoundsFilter accepts outputs whose temperatures are physically
// plausible for at least minFraction of samples.
func TempBoundsFilter(minFraction float64) OTISFilter { return alft.TempBoundsFilter(minFraction) }

// EmissivityFilter accepts outputs whose emissivities are physical for at
// least minFraction of samples.
func EmissivityFilter(minFraction float64) OTISFilter { return alft.EmissivityFilter(minFraction) }

// RoughnessFilter accepts outputs whose temperature map stays spatially
// smooth (mean |gradient| below the limit).
func RoughnessFilter(width int, maxKelvinPerPixel float64) OTISFilter {
	return alft.RoughnessFilter(width, maxKelvinPerPixel)
}
