package spaceproc

import (
	"spaceproc/internal/dataset"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// Detector geometry of the paper's Figure 1 architecture.
const (
	// DetectorSize is the NGST sensor array edge length in pixels.
	DetectorSize = dataset.DetectorSize
	// TileSize is the edge length of the fragments handed to workers.
	TileSize = dataset.TileSize
	// BaselineReadouts is the number of readouts per 1000 s baseline.
	BaselineReadouts = dataset.BaselineReadouts
)

// Data containers.
type (
	// Series is the temporal sequence of 16-bit readings of one detector
	// coordinate within a baseline.
	Series = dataset.Series
	// Pixels is a run of 16-bit pixels, carried as little-endian bytes
	// on the wire, in the content digest and in the write-ahead log.
	Pixels = dataset.Pixels
	// Image is a 2-D frame of 16-bit pixels.
	Image = dataset.Image
	// Stack is one baseline: N readout frames.
	Stack = dataset.Stack
	// Cube is an OTIS radiance volume (float32 over x, y, band).
	Cube = dataset.Cube
	// Tile is one 128x128 fragment of a frame.
	Tile = dataset.Tile
)

// NewImage returns a zeroed Image.
func NewImage(width, height int) *Image { return dataset.NewImage(width, height) }

// NewStack returns a Stack of n zeroed frames.
func NewStack(n, width, height int) *Stack { return dataset.NewStack(n, width, height) }

// NewCube returns a zeroed Cube.
func NewCube(width, height, bands int) *Cube { return dataset.NewCube(width, height, bands) }

// Fragment splits a stack into square tiles (Figure 1's master step).
func Fragment(s *Stack, tile int) ([]Tile, error) { return dataset.Fragment(s, tile) }

// Reassemble reverses Fragment.
func Reassemble(tiles []Tile, n, width, height int) (*Stack, error) {
	return dataset.Reassemble(tiles, n, width, height)
}

// RNG is the deterministic random source every generator and injector
// consumes; equal seeds reproduce experiments bit-for-bit.
type RNG = rng.Source

// NewRNG returns a source on the default stream.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewRNGStream returns a source on an independent stream, so one seed can
// drive uncorrelated generators (e.g. dataset synthesis vs fault
// injection).
func NewRNGStream(seed, stream uint64) *RNG { return rng.NewStream(seed, stream) }

// Dataset synthesis (the NGST Mission Simulator / OTIS data substitutes;
// DESIGN.md section 2).
type (
	// SeriesConfig parameterizes the eq. 1 Gaussian temporal model.
	SeriesConfig = synth.SeriesConfig
	// SceneConfig parameterizes the NGST scene/readout simulator.
	SceneConfig = synth.SceneConfig
	// Scene is a simulated NGST baseline (ideal + CR-contaminated).
	Scene = synth.Scene
	// OTISKind selects the Blob, Stripe or Spots morphology.
	OTISKind = synth.OTISKind
	// OTISSceneConfig parameterizes OTIS dataset synthesis.
	OTISSceneConfig = synth.OTISConfig
	// OTISScene is a synthetic OTIS observation.
	OTISScene = synth.OTISScene
	// ReadoutMode selects stationary (eq. 1) or accumulating (ramp)
	// readouts.
	ReadoutMode = synth.ReadoutMode
)

// Readout modes.
const (
	// StationaryReadouts is the paper's eq. 1 model.
	StationaryReadouts = synth.Stationary
	// RampReadouts accumulate charge non-destructively.
	RampReadouts = synth.Ramp
)

// The three OTIS evaluation datasets of Section 7.3.
const (
	Blob   = synth.Blob
	Stripe = synth.Stripe
	Spots  = synth.Spots
)

// GaussianSeries draws one temporal series from the eq. 1 model.
func GaussianSeries(cfg SeriesConfig, src *RNG) (Series, error) {
	return synth.GaussianSeries(cfg, src)
}

// GaussianStack draws an independent series for every coordinate.
func GaussianStack(cfg SeriesConfig, width, height int, spread float64, src *RNG) (*Stack, error) {
	return synth.GaussianStack(cfg, width, height, spread, src)
}

// DefaultSceneConfig returns the 128x128/64-readout NGST tile scene.
func DefaultSceneConfig() SceneConfig { return synth.DefaultSceneConfig() }

// NewScene simulates one NGST baseline with cosmic-ray hits.
func NewScene(cfg SceneConfig, src *RNG) (*Scene, error) { return synth.NewScene(cfg, src) }

// DefaultOTISSceneConfig returns the 64x64/8-band OTIS geometry.
func DefaultOTISSceneConfig(kind OTISKind) OTISSceneConfig { return synth.DefaultOTISConfig(kind) }

// NewOTISScene synthesizes one OTIS observation.
func NewOTISScene(cfg OTISSceneConfig, src *RNG) (*OTISScene, error) {
	return synth.NewOTISScene(cfg, src)
}

// QuartzLikeSpectrum returns a per-band emissivity with a quartz-style
// reststrahlen dip near 9 microns — a non-grey material whose spectral
// correlation breaks, as in the Section 7.1 spatial-vs-spectral
// comparison.
func QuartzLikeSpectrum(bands int) []float64 { return synth.QuartzLikeSpectrum(bands) }
