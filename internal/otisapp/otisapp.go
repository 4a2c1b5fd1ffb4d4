// Package otisapp implements the OTIS application the preprocessing layer
// feeds: the Orbital Thermal Imaging Spectrometer's retrieval of surface
// temperature and emissivity from a multi-band radiance cube (Section 7.1:
// "a two-dimensional temperature diagram in Kelvin and a three-dimensional
// emissivity diagram").
//
// The retrieval is a standard reference-channel scheme: a per-pixel
// temperature estimate is obtained by inverting Planck's law on each band
// under an assumed emissivity and averaging the per-band brightness
// temperatures; the emissivity cube is then the ratio of observed radiance
// to black-body radiance at the retrieved temperature. Because OTIS has "no
// inherent averaging or multiple imaging as in NGST, the correlation
// between precision at output and input is much higher" — the property the
// paper's OTIS experiments rest on.
//
// Every pixel's retrieval reads only that pixel's samples, so Process
// splits the rows across GOMAXPROCS goroutines; the output bits do not
// depend on the split.
package otisapp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"spaceproc/internal/dataset"
	"spaceproc/internal/physics"
)

// Config parameterizes the retrieval.
type Config struct {
	// Wavelengths are the cube's band centers in meters, positive and
	// finite; the length must equal the cube's band count.
	Wavelengths []float64
	// AssumedEmissivity is the emissivity used for the temperature
	// estimate, in (0, 1].
	AssumedEmissivity float64
}

// DefaultConfig returns a retrieval configured for the given instrument
// bands with the common long-wave infrared emissivity assumption.
func DefaultConfig(wavelengths []float64) Config {
	return Config{Wavelengths: wavelengths, AssumedEmissivity: 0.96}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.Wavelengths) == 0 {
		return fmt.Errorf("otisapp: no wavelengths")
	}
	for i, w := range c.Wavelengths {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("otisapp: wavelength %d is %v, want positive and finite", i, w)
		}
	}
	if !(c.AssumedEmissivity > 0 && c.AssumedEmissivity <= 1) {
		return fmt.Errorf("otisapp: assumed emissivity %v outside (0,1]", c.AssumedEmissivity)
	}
	return nil
}

// Output is the retrieval result.
type Output struct {
	// Temps is the row-major temperature map in Kelvin.
	Temps []float64
	// Emissivity is the per-band, per-pixel emissivity cube.
	Emissivity *dataset.Cube
}

// Retriever converts radiance cubes into temperature and emissivity maps.
type Retriever struct {
	cfg Config
}

// New validates cfg and returns a Retriever.
func New(cfg Config) (*Retriever, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Retriever{cfg: cfg}, nil
}

// Process retrieves temperature and emissivity from the cube. It returns
// an error if the cube's band count does not match the configured
// wavelengths. Every pixel is retrieved independently, so Process splits
// the rows into contiguous ranges, one per goroutine up to GOMAXPROCS, all
// writing into the one Output; each pixel gets the bits a sequential pass
// gives it, and at GOMAXPROCS 1 Process is that pass.
func (r *Retriever) Process(c *dataset.Cube) (*Output, error) {
	return r.process(c, runtime.GOMAXPROCS(0))
}

// process is Process with the rows split into min(workers, Height)
// ranges.
func (r *Retriever) process(c *dataset.Cube, workers int) (*Output, error) {
	if c.Bands != len(r.cfg.Wavelengths) {
		return nil, fmt.Errorf("otisapp: cube has %d bands, config has %d wavelengths",
			c.Bands, len(r.cfg.Wavelengths))
	}
	out := &Output{
		Temps:      make([]float64, c.Width*c.Height),
		Emissivity: dataset.NewCube(c.Width, c.Height, c.Bands),
	}
	workers = min(workers, c.Height)
	if workers <= 1 {
		r.retrieve(c, out, 0, len(out.Temps))
		return out, nil
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		y0, y1 := i*c.Height/workers, (i+1)*c.Height/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.retrieve(c, out, y0*c.Width, y1*c.Width)
		}()
	}
	r.retrieve(c, out, 0, c.Height/workers*c.Width)
	wg.Wait()
	return out, nil
}

// retrieve fills out's temperatures and emissivities for the pixels
// [p0, p1) of c.
func (r *Retriever) retrieve(c *dataset.Cube, out *Output, p0, p1 int) {
	for i := p0; i < p1; i++ {
		var sum float64
		var n int
		for b, lambda := range r.cfg.Wavelengths {
			v := float64(c.Band(b)[i])
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				continue
			}
			temp := physics.BrightnessTemperature(lambda, v/r.cfg.AssumedEmissivity)
			if temp <= 0 {
				continue
			}
			sum += temp
			n++
		}
		var temp float64
		if n > 0 {
			temp = sum / float64(n)
		}
		out.Temps[i] = temp
		for b, lambda := range r.cfg.Wavelengths {
			bb := physics.SpectralRadiance(lambda, temp)
			if bb <= 0 {
				continue
			}
			eps := float64(c.Band(b)[i]) / bb
			out.Emissivity.Band(b)[i] = float32(eps)
		}
	}
}

// TempError returns the mean absolute temperature error in Kelvin between
// a retrieved map and ground truth, skipping non-finite entries.
func TempError(got, want []float64) float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("otisapp: length mismatch %d != %d", len(got), len(want)))
	}
	var sum float64
	var n int
	for i := range got {
		g, w := got[i], want[i]
		if math.IsNaN(g) || math.IsNaN(w) || w == 0 {
			continue
		}
		sum += math.Abs(g - w)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
