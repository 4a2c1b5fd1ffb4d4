package spaceproc

import (
	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/metrics"
)

// Preprocessing algorithms (the paper's contribution; internal/core).
type (
	// SeriesPreprocessor repairs suspected bit flips in the temporal pixel
	// series of a stack in place, one series (ProcessSeries) or a
	// flattened pixel range (ProcessStackPlanes) at a time. AlgoNGST runs
	// its range through the plane-major (bit-sliced) kernel, one uint64
	// word voting 64 pixels at a time, whenever the stack depth qualifies;
	// set NGSTConfig.ScalarOnly to pin the classic scalar kernel instead.
	SeriesPreprocessor = core.SeriesPreprocessor
	// CubePreprocessor repairs suspected bit flips in a radiance cube in
	// place.
	CubePreprocessor = core.CubePreprocessor
	// NGSTConfig parameterizes AlgoNGST (Upsilon neighbors, sensitivity
	// Lambda).
	NGSTConfig = core.NGSTConfig
	// OTISConfig parameterizes AlgoOTIS (sensitivity, physical bounds,
	// trend guard).
	OTISConfig = core.OTISConfig
	// AlgoNGST is the paper's Algorithm 1.
	AlgoNGST = core.AlgoNGST
	// AlgoOTIS is the Section 7.2 spatial adaptation.
	AlgoOTIS = core.AlgoOTIS
	// Median3 is Algorithm 2 (window-3 median smoothing).
	Median3 = core.Median3
	// MajorityBit3 is Algorithm 3 (window-3 bitwise majority voting).
	MajorityBit3 = core.MajorityBit3
	// CubeMedian3 is the OTIS adaptation of Algorithm 2.
	CubeMedian3 = core.CubeMedian3
	// CubeMajorityBit3 is the OTIS adaptation of Algorithm 3.
	CubeMajorityBit3 = core.CubeMajorityBit3
	// OTISLocality selects AlgoOTIS's redundancy dimension.
	OTISLocality = core.OTISLocality
	// VoteStats carries preprocessing telemetry (corrections by window,
	// guard rejections).
	VoteStats = core.VoteStats
	// VoteScratch holds the reusable buffers of the allocation-free
	// preprocessing passes (ProcessStackPlanes, ProcessSeriesScratch).
	VoteScratch = core.VoteScratch
	// CubeScratch holds the reusable buffers of a cube preprocessing pass.
	CubeScratch = core.CubeScratch
	// PlaneStack is the plane-major (bit-sliced) view of a stack window:
	// bit b of up to 64 pixel series packs into one uint64 word per
	// readout, the layout the plane kernels vote on.
	PlaneStack = dataset.PlaneStack
)

// Locality models for AlgoOTIS (Section 7.1: spatial is recommended).
const (
	SpatialLocality  = core.SpatialLocality
	SpectralLocality = core.SpectralLocality
)

// DefaultNGSTConfig returns the paper's experimentally optimal parameters
// (Upsilon = 4, Lambda = 80).
func DefaultNGSTConfig() NGSTConfig { return core.DefaultNGSTConfig() }

// NewAlgoNGST validates cfg and returns Algorithm 1.
func NewAlgoNGST(cfg NGSTConfig) (*AlgoNGST, error) { return core.NewAlgoNGST(cfg) }

// DefaultOTISConfig returns AlgoOTIS defaults with physical bounds at the
// given band wavelengths (meters).
func DefaultOTISConfig(wavelengths []float64) OTISConfig { return core.DefaultOTISConfig(wavelengths) }

// NewAlgoOTIS validates cfg and returns the Section 7.2 algorithm.
func NewAlgoOTIS(cfg OTISConfig) (*AlgoOTIS, error) { return core.NewAlgoOTIS(cfg) }

// NewVoteScratch returns an empty scratch for the allocation-free
// preprocessing passes (ProcessStackPlanes, ProcessSeriesScratch). Not
// safe for concurrent use; hold one per goroutine.
func NewVoteScratch() *VoteScratch { return core.NewVoteScratch() }

// NewCubeScratch returns an empty scratch for repeated AlgoOTIS cube
// passes (ProcessCubeScratch).
func NewCubeScratch() *CubeScratch { return core.NewCubeScratch() }

// ProcessStackWith runs a series preprocessor over every coordinate of a
// baseline stack in place, as one ProcessStackPlanes pass over the whole
// pixel range.
func ProcessStackWith(p SeriesPreprocessor, s *Stack) { core.ProcessStackWith(p, s) }

// NewPlaneStack allocates a plane-major block holding pixels series of
// depth readouts at width significant bits. Most callers never build one
// directly — the plane kernels stage through scratch-held blocks — but
// the representation is exported for tools and tests that want to
// inspect or construct bit-sliced data.
func NewPlaneStack(depth, width, pixels int) (*PlaneStack, error) {
	return dataset.NewPlaneStack(depth, width, pixels)
}

// FromStack transposes an entire stack into a fresh 16-bit plane-major
// block (PlaneStack.ToStack inverts it).
func FromStack(s *Stack) (*PlaneStack, error) { return dataset.FromStack(s) }

// Evaluation metrics (eqs. 3-4).

// SeriesError computes the average relative error Psi between an observed
// and ideal series.
func SeriesError(observed, ideal Series) float64 { return metrics.SeriesError(observed, ideal) }

// StackError computes Psi across all readouts of a baseline.
func StackError(observed, ideal *Stack) float64 { return metrics.StackError(observed, ideal) }

// CubeError computes Psi across all samples of a radiance cube, with each
// sample's contribution capped at "completely wrong" (see
// metrics.MaxSampleError).
func CubeError(observed, ideal *Cube) float64 { return metrics.CubeError(observed, ideal) }

// Gain is Psi-without-preprocessing over Psi-after; values below 1 mark
// the breakdown regime of Figure 9.
func Gain(psiNo, psiAfter float64) float64 { return metrics.Gain(psiNo, psiAfter) }
