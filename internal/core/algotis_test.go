package core

import (
	"math"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/physics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func otisScene(t *testing.T, kind synth.OTISKind, seed uint64) *synth.OTISScene {
	t.Helper()
	sc, err := synth.NewOTISScene(synth.DefaultOTISConfig(kind), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newOTIS(t *testing.T, cfg OTISConfig) *AlgoOTIS {
	t.Helper()
	a, err := NewAlgoOTIS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestOTISConfigValidate(t *testing.T) {
	if _, err := NewAlgoOTIS(OTISConfig{Sensitivity: 101}); err == nil {
		t.Error("sensitivity 101 should be invalid")
	}
	if _, err := NewAlgoOTIS(OTISConfig{Sensitivity: 50, Wavelengths: []float64{-1}}); err == nil {
		t.Error("negative wavelength should be invalid")
	}
	if _, err := NewAlgoOTIS(DefaultOTISConfig(physics.ThermalBands(4))); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestOTISConfigRejectsNonFiniteWavelengths guards the NaN-safe wavelength
// check: a NaN or +Inf wavelength gives its band a NaN upper bound, which
// every sample fails, so the bounds repair would replace the whole band.
func TestOTISConfigRejectsNonFiniteWavelengths(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		waves := physics.ThermalBands(8)
		waves[3] = w
		if _, err := NewAlgoOTIS(DefaultOTISConfig(waves)); err == nil {
			t.Errorf("wavelength %v accepted", w)
		}
	}
}

func TestAlgoOTISName(t *testing.T) {
	a := newOTIS(t, OTISConfig{Sensitivity: 70})
	if a.Name() != "Algo_OTIS(L=70)" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestAlgoOTISRepairsOutOfBoundsValues(t *testing.T) {
	sc := otisScene(t, synth.Blob, 1)
	cube := sc.Cube.Clone()
	// Damage three samples in band 2 with unphysical values.
	plane := cube.Band(2)
	plane[10] = float32(math.NaN())
	plane[200] = -5
	plane[900] = 3e38
	a := newOTIS(t, DefaultOTISConfig(sc.Wavelengths))
	a.ProcessCube(cube)
	got := cube.Band(2)
	for _, i := range []int{10, 200, 900} {
		v := float64(got[i])
		if math.IsNaN(v) || v < 0 || v > 1e8 {
			t.Fatalf("sample %d not repaired: %v", i, got[i])
		}
		// It should be close to the ideal (neighbors are smooth).
		ideal := float64(sc.Cube.Band(2)[i])
		if math.Abs(v-ideal)/ideal > 0.2 {
			t.Errorf("sample %d repaired to %v, ideal %v", i, v, ideal)
		}
	}
}

func TestAlgoOTISRepairsHighBitFlip(t *testing.T) {
	sc := otisScene(t, synth.Blob, 2)
	cube := sc.Cube.Clone()
	plane := cube.Band(1)
	// Flip a high mantissa bit (bit 20): value changes by ~12% — within
	// physical bounds, so only the voter pass can catch it.
	i := 33*cube.Width + 17
	plane[i] = math.Float32frombits(math.Float32bits(plane[i]) ^ (1 << 20))
	if math.Abs(float64(plane[i]-sc.Cube.Band(1)[i])) == 0 {
		t.Fatal("flip had no effect; test is vacuous")
	}
	a := newOTIS(t, DefaultOTISConfig(sc.Wavelengths))
	a.ProcessCube(cube)
	got := float64(cube.Band(1)[i])
	ideal := float64(sc.Cube.Band(1)[i])
	if math.Abs(got-ideal)/ideal > 0.02 {
		t.Fatalf("high-bit flip not repaired: got %v, ideal %v", got, ideal)
	}
}

func TestAlgoOTISReducesInjectedError(t *testing.T) {
	a := newOTIS(t, DefaultOTISConfig(physics.ThermalBands(8)))
	injector := fault.Uncorrelated{Gamma0: 0.01}
	var before, after metrics.Accumulator
	for trial := uint64(0); trial < 5; trial++ {
		sc := otisScene(t, synth.Blob, 100+trial)
		damaged := sc.Cube.Clone()
		injector.InjectCube(damaged, rng.NewStream(55, trial))
		before.Add(metrics.CubeError(damaged, sc.Cube))
		a.ProcessCube(damaged)
		after.Add(metrics.CubeError(damaged, sc.Cube))
	}
	if gain := metrics.Gain(before.Mean(), after.Mean()); gain < 10 {
		t.Fatalf("gain = %.1fx (before %.4g, after %.4g), want >= 10x", gain, before.Mean(), after.Mean())
	}
}

func TestAlgoOTISTrendGuardPreservesHotSpot(t *testing.T) {
	// A genuine multi-pixel thermal anomaly (Section 7.2: geysers,
	// eruptions) must survive preprocessing.
	cfg := synth.DefaultOTISConfig(synth.Blob)
	sc, err := synth.NewOTISScene(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Plant a hot 2x2 block (+60 K) in the temperature field and rebuild
	// one band from it.
	w := cfg.Width
	lambda := sc.Wavelengths[0]
	temps := append([]float64(nil), sc.Temps...)
	for _, off := range []int{20*w + 20, 20*w + 21, 21*w + 20, 21*w + 21} {
		temps[off] += 60
	}
	ideal := dataset.NewCube(cfg.Width, cfg.Height, 1)
	for i, temp := range temps {
		ideal.Data[i] = float32(cfg.Emissivity * physics.SpectralRadiance(lambda, temp))
	}

	guarded := newOTIS(t, OTISConfig{Sensitivity: 80, Wavelengths: []float64{lambda}, TrendGuard: true})
	got := ideal.Clone()
	guarded.ProcessCube(got)
	psi := metrics.CubeError(got, ideal)
	if psi > 0.001 {
		t.Fatalf("trend guard failed: hot spot eroded, Psi = %.5f", psi)
	}
}

func TestAlgoOTISZeroSensitivityOnlyBounds(t *testing.T) {
	sc := otisScene(t, synth.Stripe, 4)
	cube := sc.Cube.Clone()
	plane := cube.Band(0)
	plane[5] = float32(math.NaN())
	// A subtle (in-bounds) flip that only voting could repair.
	j := 30*cube.Width + 30
	plane[j] = math.Float32frombits(math.Float32bits(plane[j]) ^ (1 << 18))
	subtle := plane[j]

	a := newOTIS(t, OTISConfig{Sensitivity: 0, Wavelengths: sc.Wavelengths, TrendGuard: true})
	a.ProcessCube(cube)
	got := cube.Band(0)
	if v := float64(got[5]); math.IsNaN(v) {
		t.Fatal("bounds repair must run even at sensitivity 0")
	}
	if got[j] != subtle {
		t.Fatal("voter pass must not run at sensitivity 0")
	}
}

func TestAlgoOTISDoesNotDegradeCleanData(t *testing.T) {
	for _, kind := range []synth.OTISKind{synth.Blob, synth.Stripe, synth.Spots} {
		sc := otisScene(t, kind, 10+uint64(kind))
		cube := sc.Cube.Clone()
		a := newOTIS(t, DefaultOTISConfig(sc.Wavelengths))
		a.ProcessCube(cube)
		if psi := metrics.CubeError(cube, sc.Cube); psi > 0.01 {
			t.Errorf("%v: clean-data false-alarm error %.5f too high", kind, psi)
		}
	}
}

func TestCubeMedian3RemovesSpikes(t *testing.T) {
	sc := otisScene(t, synth.Blob, 5)
	cube := sc.Cube.Clone()
	plane := cube.Band(0)
	i := 10*cube.Width + 10
	plane[i] *= 100
	(CubeMedian3{}).ProcessCube(cube)
	got := float64(cube.Band(0)[i])
	ideal := float64(sc.Cube.Band(0)[i])
	if math.Abs(got-ideal)/ideal > 0.05 {
		t.Fatalf("spike survived: got %v, ideal %v", got, ideal)
	}
}

func TestCubeMedian3HandlesNaNRows(t *testing.T) {
	c := dataset.NewCube(5, 1, 1)
	copy(c.Band(0), []float32{1, float32(math.NaN()), 1, 1, 1})
	(CubeMedian3{}).ProcessCube(c)
	for i, v := range c.Band(0) {
		if isNaN32(v) {
			t.Fatalf("NaN survived median at %d", i)
		}
	}
}

func TestCubeMajorityBit3RepairsFlip(t *testing.T) {
	c := dataset.NewCube(7, 1, 1)
	row := c.Band(0)
	for i := range row {
		row[i] = 1.5e7
	}
	row[3] = math.Float32frombits(math.Float32bits(row[3]) ^ (1 << 30))
	(CubeMajorityBit3{}).ProcessCube(c)
	for i, v := range c.Band(0) {
		if v != 1.5e7 {
			t.Fatalf("flip survived at %d: %v", i, v)
		}
	}
}

func TestCubeMajorityBeatsCubeMedianOnOTISData(t *testing.T) {
	// The Figure 8 ordering: on OTIS float planes, bitwise majority
	// voting outperforms median smoothing overall.
	injector := fault.Uncorrelated{Gamma0: 0.02}
	var maj, med metrics.Accumulator
	for trial := uint64(0); trial < 5; trial++ {
		sc := otisScene(t, synth.Blob, 200+trial)
		damaged := sc.Cube.Clone()
		injector.InjectCube(damaged, rng.NewStream(77, trial))

		a := damaged.Clone()
		(CubeMajorityBit3{}).ProcessCube(a)
		maj.Add(metrics.CubeError(a, sc.Cube))

		b := damaged.Clone()
		(CubeMedian3{}).ProcessCube(b)
		med.Add(metrics.CubeError(b, sc.Cube))
	}
	if maj.Mean() >= med.Mean() {
		t.Fatalf("majority Psi %.5g not below median Psi %.5g on OTIS data", maj.Mean(), med.Mean())
	}
}

func TestCubeFilterNames(t *testing.T) {
	if (CubeMedian3{}).Name() != "MedianSmooth3" || (CubeMajorityBit3{}).Name() != "MajorityBitVote3" {
		t.Fatal("cube filter names changed")
	}
}
