package adapt

import (
	"testing"

	"spaceproc/internal/core"
	"spaceproc/internal/fault"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// telemetryFor preprocesses `trials` damaged series and returns the
// aggregate telemetry.
func telemetryFor(t *testing.T, gamma0 float64, trials int, seedBase uint64) core.VoteStats {
	t.Helper()
	a, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.Uncorrelated{Gamma0: gamma0}
	var stats core.VoteStats
	for trial := 0; trial < trials; trial++ {
		ser, err := synth.GaussianSeries(synth.SeriesConfig{N: 64, Initial: 27000, Sigma: 100},
			rng.NewStream(seedBase, uint64(trial)*2))
		if err != nil {
			t.Fatal(err)
		}
		injector.InjectSeries(ser, rng.NewStream(seedBase, uint64(trial)*2+1))
		a.ProcessSeriesScratch(ser, nil, &stats)
	}
	return stats
}

func TestEstimateRateTracksInjectedRate(t *testing.T) {
	for _, gamma0 := range []float64{0.005, 0.02, 0.05} {
		stats := telemetryFor(t, gamma0, 50, 100)
		got := EstimateRate(stats, 64)
		if got < gamma0/2 || got > gamma0*2 {
			t.Errorf("Gamma0=%v: estimate %v outside factor-2 band", gamma0, got)
		}
	}
}

func TestEstimateRateDegenerate(t *testing.T) {
	if EstimateRate(core.VoteStats{}, 64) != 0 {
		t.Error("empty telemetry should estimate 0")
	}
	if EstimateRate(core.VoteStats{Series: 1, WindowCBit: 16}, 64) != 0 {
		t.Error("all-window-C telemetry should estimate 0")
	}
	if EstimateRate(core.VoteStats{Series: 1}, 0) != 0 {
		t.Error("zero series length should estimate 0")
	}
}

func TestClosedLoopConvergesToEnvironment(t *testing.T) {
	cal := &Calibration{
		Rates:   []float64{0.001, 0.01, 0.05},
		Lambdas: []int{40, 80, 100},
	}
	loop := NewClosedLoop(cal, 0.001)
	if loop.Sensitivity() != 40 {
		t.Fatalf("initial sensitivity %d, want 40", loop.Sensitivity())
	}
	// Fly into a high-rate region: telemetry drives Lambda up.
	stats := telemetryFor(t, 0.05, 30, 200)
	loop.Observe(stats, 64)
	if loop.Sensitivity() != 100 {
		t.Fatalf("after high-rate telemetry sensitivity %d (estimate %v), want 100",
			loop.Sensitivity(), loop.LastEstimate())
	}
	// Back to quiet space.
	quiet := telemetryFor(t, 0.001, 30, 300)
	loop.Observe(quiet, 64)
	if loop.Sensitivity() > 80 {
		t.Fatalf("after quiet telemetry sensitivity %d (estimate %v), want <= 80",
			loop.Sensitivity(), loop.LastEstimate())
	}
}

func TestClosedLoopDecaysWithoutSignal(t *testing.T) {
	cal := &Calibration{Rates: []float64{0.001, 0.05}, Lambdas: []int{40, 100}}
	loop := NewClosedLoop(cal, 0.05)
	if loop.Sensitivity() != 100 {
		t.Fatal("wrong start")
	}
	// Repeated zero-telemetry observations decay the estimate to quiet.
	for i := 0; i < 10; i++ {
		loop.Observe(core.VoteStats{Series: 1, WindowCBit: 16}, 64)
	}
	if loop.Sensitivity() != 40 {
		t.Fatalf("estimate did not decay: sensitivity %d, estimate %v", loop.Sensitivity(), loop.LastEstimate())
	}
}

func TestOTISCubeStatsObservability(t *testing.T) {
	sc, err := synth.NewOTISScene(synth.DefaultOTISConfig(synth.Blob), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	damaged := sc.Cube.Clone()
	fault.Uncorrelated{Gamma0: 0.01}.InjectCube(damaged, rng.New(10))
	a, err := core.NewAlgoOTIS(core.DefaultOTISConfig(sc.Wavelengths))
	if err != nil {
		t.Fatal(err)
	}
	var stats core.CubeStats
	a.ProcessCubeScratch(damaged, nil, &stats)
	if stats.BoundsRepairs == 0 {
		t.Error("1% cube damage should trip bounds repairs (exponent flips)")
	}
	if stats.Voted == 0 {
		t.Error("voter should have repaired in-bounds flips")
	}
	var sum core.CubeStats
	sum.Add(stats)
	sum.Add(stats)
	if sum.Voted != 2*stats.Voted || sum.BoundsRepairs != 2*stats.BoundsRepairs {
		t.Error("CubeStats.Add wrong")
	}
}
