package otisapp

import (
	"math"
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/physics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(physics.ThermalBands(4)).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty wavelengths should be invalid")
	}
	if err := (Config{Wavelengths: []float64{-1}, AssumedEmissivity: 0.9}).Validate(); err == nil {
		t.Error("negative wavelength should be invalid")
	}
	if err := (Config{Wavelengths: []float64{1e-5}, AssumedEmissivity: 0}).Validate(); err == nil {
		t.Error("zero emissivity should be invalid")
	}
	if err := (Config{Wavelengths: []float64{1e-5}, AssumedEmissivity: 1.2}).Validate(); err == nil {
		t.Error("emissivity > 1 should be invalid")
	}
}

// TestConfigRejectsNonFinite guards the NaN-safe checks: a NaN or infinite
// wavelength, or a NaN assumed emissivity, would make temperatures NaN.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []float64{nan, inf, -inf} {
		if _, err := New(Config{Wavelengths: []float64{1e-5, w}, AssumedEmissivity: 0.96}); err == nil {
			t.Errorf("wavelength %v accepted", w)
		}
	}
	for _, eps := range []float64{nan, inf, -inf} {
		if _, err := New(Config{Wavelengths: []float64{1e-5}, AssumedEmissivity: eps}); err == nil {
			t.Errorf("assumed emissivity %v accepted", eps)
		}
	}
}

func TestProcessBandMismatch(t *testing.T) {
	r, err := New(DefaultConfig(physics.ThermalBands(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Process(dataset.NewCube(4, 4, 3)); err == nil {
		t.Fatal("band mismatch should error")
	}
}

func TestRetrievalRecoversTemperatures(t *testing.T) {
	// When the assumed emissivity matches the scene's, the retrieval must
	// recover the synthetic temperature field almost exactly.
	cfg := synth.DefaultOTISConfig(synth.Blob)
	sc, err := synth.NewOTISScene(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Wavelengths: sc.Wavelengths, AssumedEmissivity: cfg.Emissivity})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Process(sc.Cube)
	if err != nil {
		t.Fatal(err)
	}
	if e := TempError(out.Temps, sc.Temps); e > 0.05 {
		t.Fatalf("temperature error %.4f K, want < 0.05 K", e)
	}
	// Emissivity cube should be near the scene emissivity everywhere.
	for b := 0; b < sc.Cube.Bands; b++ {
		for i, eps := range out.Emissivity.Band(b) {
			if math.Abs(float64(eps)-cfg.Emissivity) > 0.02 {
				t.Fatalf("band %d sample %d emissivity %.4f, want ~%.2f", b, i, eps, cfg.Emissivity)

			}
		}
	}
}

func TestRetrievalSkipsInvalidSamples(t *testing.T) {
	cfg := synth.DefaultOTISConfig(synth.Blob)
	sc, err := synth.NewOTISScene(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	cube := sc.Cube.Clone()
	// Corrupt one pixel's band 0 with NaN; the other bands still carry
	// the temperature.
	cube.Band(0)[7] = float32(math.NaN())
	r, err := New(Config{Wavelengths: sc.Wavelengths, AssumedEmissivity: cfg.Emissivity})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Process(cube)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Temps[7]-sc.Temps[7]) > 0.5 {
		t.Fatalf("temp with one NaN band = %.2f, want ~%.2f", out.Temps[7], sc.Temps[7])
	}
}

func TestBitFlipsCorruptRetrievalAndPreprocessingRecovers(t *testing.T) {
	// The paper's end-to-end OTIS claim: input bit flips propagate
	// directly into the science products, and input preprocessing
	// restores them.
	cfg := synth.DefaultOTISConfig(synth.Spots)
	sc, err := synth.NewOTISScene(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Wavelengths: sc.Wavelengths, AssumedEmissivity: cfg.Emissivity})
	if err != nil {
		t.Fatal(err)
	}

	damaged := sc.Cube.Clone()
	fault.Uncorrelated{Gamma0: 0.01}.InjectCube(damaged, rng.New(4))
	rawOut, err := r.Process(damaged)
	if err != nil {
		t.Fatal(err)
	}
	rawErr := TempError(rawOut.Temps, sc.Temps)
	if rawErr < 0.5 {
		t.Fatalf("bit flips barely moved the retrieval (%.3f K); test is vacuous", rawErr)
	}

	pre, err := core.NewAlgoOTIS(core.DefaultOTISConfig(sc.Wavelengths))
	if err != nil {
		t.Fatal(err)
	}
	cleaned := sc.Cube.Clone()
	fault.Uncorrelated{Gamma0: 0.01}.InjectCube(cleaned, rng.New(4))
	pre.ProcessCube(cleaned)
	cleanOut, err := r.Process(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	cleanErr := TempError(cleanOut.Temps, sc.Temps)
	if cleanErr*5 > rawErr {
		t.Fatalf("preprocessing gained too little: raw %.3f K, preprocessed %.3f K", rawErr, cleanErr)
	}
}

func TestTempError(t *testing.T) {
	if e := TempError([]float64{300, 301}, []float64{300, 300}); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("TempError = %v, want 0.5", e)
	}
	if e := TempError([]float64{math.NaN(), 300}, []float64{300, 300}); e != 0 {
		t.Fatalf("NaN entries should be skipped: %v", e)
	}
	if e := TempError(nil, nil); e != 0 {
		t.Fatalf("empty TempError = %v", e)
	}
}

func TestTempErrorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	TempError([]float64{1}, []float64{1, 2})
}
