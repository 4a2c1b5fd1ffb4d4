package core

import (
	"math"
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
)

// damagedCube synthesizes a radiance cube of smooth planes with rng-driven
// bit flips, NaN/Inf injections and turbulence, the workload of the OTIS
// differential tests.
func damagedCube(rng *rand.Rand, w, h, bands int) *dataset.Cube {
	c := dataset.NewCube(w, h, bands)
	for b := 0; b < bands; b++ {
		plane := c.Band(b)
		base := 1e-3 * (1 + rng.Float64())
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := base * (1 + 0.01*math.Sin(float64(x+y+b)))
				if y > h/3 && y < 2*h/3 {
					v *= 1 + 0.3*rng.Float64() // turbulent central band
				}
				plane[y*w+x] = float32(v)
			}
		}
		for i := range plane {
			switch {
			case rng.Float64() < 0.01:
				plane[i] = math.Float32frombits(math.Float32bits(plane[i]) ^ 1<<uint(rng.Intn(32)))
			case rng.Float64() < 0.003:
				plane[i] = float32(math.NaN())
			case rng.Float64() < 0.002:
				plane[i] = float32(math.Inf(1))
			}
		}
	}
	return c
}

func cubesEqual(t *testing.T, name string, a, b *dataset.Cube) {
	t.Helper()
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			t.Fatalf("%s: sample %d: scalar %08x plane %08x", name, i,
				math.Float32bits(v), math.Float32bits(b.Data[i]))
		}
	}
}

// diffOTIS runs the same cube through the scalar and plane-major kernels
// of one configuration and fails on any bit or stats divergence.
func diffOTIS(t *testing.T, cfg OTISConfig, src *dataset.Cube) {
	t.Helper()
	scalarCfg := cfg
	scalarCfg.ScalarOnly = true
	planeCfg := cfg
	planeCfg.ScalarOnly = false
	aS, err := NewAlgoOTIS(scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	aP, err := NewAlgoOTIS(planeCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, got := src.Clone(), src.Clone()
	var stS, stP CubeStats
	aS.ProcessCubeScratch(want, NewCubeScratch(), &stS)
	aP.ProcessCubeScratch(got, NewCubeScratch(), &stP)
	cubesEqual(t, aS.Name()+"/"+cfg.Locality.String(), want, got)
	if stS != stP {
		t.Fatalf("%s %s: stats scalar %+v plane %+v", aS.Name(), cfg.Locality, stS, stP)
	}
}

// TestProcessCubeSpectralPlanesMatchesScalar is the OTIS differential
// gate: spectral plane voting must be bit-identical to the scalar kernel
// across geometries, sensitivities and guard settings — including cubes
// holding NaN, Inf and bit-flipped payloads. The spatial vote has only the
// scalar tile kernel, so TestAlgoOTISGolden pins it instead.
func TestProcessCubeSpectralPlanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	wavelengths := []float64{8e-6, 9e-6, 10e-6, 11e-6, 12e-6, 13e-6, 14e-6, 15e-6}
	geoms := []struct{ w, h, bands int }{
		{16, 16, 4}, {8, 8, 8}, {13, 9, 5}, {3, 3, 3}, {24, 5, 6}, {9, 17, 64},
	}
	for _, g := range geoms {
		src := damagedCube(rng, g.w, g.h, g.bands)
		for _, guard := range []bool{true, false} {
			cfg := OTISConfig{
				Sensitivity: 1 + rng.Intn(100),
				Wavelengths: wavelengths[:min(g.bands, len(wavelengths))],
				TrendGuard:  guard,
				Locality:    SpectralLocality,
			}
			diffOTIS(t, cfg, src)
		}
	}
}
