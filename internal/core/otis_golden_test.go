package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/physics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// otisGoldenDigest is the FNV-64a digest of every output bit and CubeStats
// field TestAlgoOTISGolden produces. It pins AlgoOTIS's behaviour exactly:
// the spatial vote has no second kernel to diff against, so any change to
// its thresholds, trend guard or neighbor medians has to reproduce this
// constant bit for bit.
const otisGoldenDigest = 0xbcc69d8cf12ecf4

// goldenCubes returns the damaged cubes of the golden test: the three
// synthetic morphologies at several upset rates, plus smooth cubes holding
// NaN, Inf, bit flips and signed zeros.
func goldenCubes(t *testing.T) []*dataset.Cube {
	t.Helper()
	var cubes []*dataset.Cube
	for _, kind := range []synth.OTISKind{synth.Blob, synth.Stripe, synth.Spots} {
		cfg := synth.DefaultOTISConfig(kind)
		cfg.Width, cfg.Height = 48, 32
		sc, err := synth.NewOTISScene(cfg, rng.New(uint64(kind)))
		if err != nil {
			t.Fatal(err)
		}
		for i, g0 := range []float64{0.002, 0.01, 0.05} {
			c := sc.Cube.Clone()
			fault.Uncorrelated{Gamma0: g0}.InjectCube(c, rng.New(uint64(10*int(kind)+i)))
			cubes = append(cubes, c)
		}
	}
	r := rand.New(rand.NewSource(15))
	for _, g := range []struct{ w, h, bands int }{{20, 16, 6}, {9, 13, 4}, {3, 5, 3}} {
		c := damagedCube(r, g.w, g.h, g.bands)
		negZero := float32(math.Copysign(0, -1))
		for i := range c.Data {
			switch r.Intn(40) {
			case 0:
				c.Data[i] = negZero
			case 1:
				c.Data[i] = 0
			}
		}
		cubes = append(cubes, c)
	}
	return cubes
}

// TestAlgoOTISGolden runs AlgoOTIS over both localities, a spread of
// sensitivities, the trend guard on and off, and with and without band
// wavelengths, and checks the digest of every output bit and counter
// against otisGoldenDigest.
func TestAlgoOTISGolden(t *testing.T) {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	runs := 0
	for _, src := range goldenCubes(t) {
		waves := physics.ThermalBands(src.Bands)
		for _, loc := range []OTISLocality{SpatialLocality, SpectralLocality} {
			for _, lambda := range []int{0, 1, 20, 50, 80, 100} {
				for _, guard := range []bool{true, false} {
					for _, wl := range [][]float64{nil, waves} {
						a := newOTIS(t, OTISConfig{Sensitivity: lambda, Wavelengths: wl, TrendGuard: guard, Locality: loc})
						c := src.Clone()
						var st CubeStats
						a.ProcessCubeScratch(c, nil, &st)
						for _, v := range c.Data {
							put(uint64(math.Float32bits(v)))
						}
						put(uint64(st.BoundsRepairs))
						put(uint64(st.Voted))
						put(uint64(st.TrendPreserved))
						runs++
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != otisGoldenDigest {
		t.Fatalf("AlgoOTIS digest over %d runs = %#x, want %#x", runs, got, uint64(otisGoldenDigest))
	}
}

// TestSpatialFanOutMatchesSequential runs the spatial pass with 1 to 9
// band workers over the golden cubes plus 1-band, 3-band and one-row
// cubes, and requires the output bits and CubeStats of the one-worker
// band loop. Each worker count keeps one warm scratch across every cube,
// so lanes sized for one geometry are reused for the next.
func TestSpatialFanOutMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cubes := append(goldenCubes(t),
		damagedCube(r, 20, 16, 1), damagedCube(r, 9, 7, 3), damagedCube(r, 17, 1, 5), damagedCube(r, 1, 12, 9))
	scratch := make([]CubeScratch, 10)
	for ci, src := range cubes {
		waves := physics.ThermalBands(src.Bands)
		for _, cfg := range []OTISConfig{
			{Sensitivity: 80, Wavelengths: waves, TrendGuard: true},
			{Sensitivity: 50},
			{Sensitivity: 0, Wavelengths: waves},
		} {
			a := newOTIS(t, cfg)
			want := src.Clone()
			var wantStats CubeStats
			a.processCubeStats(want, &scratch[0], &wantStats, 1)
			for workers := 1; workers <= 9; workers++ {
				for _, count := range []bool{true, false} {
					got := src.Clone()
					var st CubeStats
					stats := &st
					if !count {
						stats = nil
					}
					a.processCubeStats(got, &scratch[workers], stats, workers)
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							t.Fatalf("cube %d %+v, %d workers: sample %d = %#x, one worker gives %#x",
								ci, cfg, workers, i, math.Float32bits(v), math.Float32bits(want.Data[i]))
						}
					}
					if count && st != wantStats {
						t.Fatalf("cube %d %+v, %d workers: stats %+v, one worker gives %+v", ci, cfg, workers, st, wantStats)
					}
				}
			}
		}
	}
}
