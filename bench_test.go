package spaceproc_test

import (
	"fmt"
	"testing"

	"spaceproc"
)

// The benchmarks mirror the paper's evaluation: one benchmark per figure,
// exercising exactly the workload that regenerates it (cmd/experiments
// prints the corresponding series). Figure 3 — preprocessing overhead vs
// sensitivity — is reproduced directly by BenchmarkFig3OverheadVsSensitivity.

// benchSeries returns a damaged NGST series for preprocessing benches.
func benchSeries(b *testing.B, gamma0 float64) (spaceproc.Series, spaceproc.Series) {
	b.Helper()
	ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
		N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 250,
	}, spaceproc.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	damaged := ideal.Clone()
	spaceproc.Uncorrelated{Gamma0: gamma0}.InjectSeries(damaged, spaceproc.NewRNGStream(1, 1))
	return damaged, ideal
}

// BenchmarkFig2AlgoNGSTVsMedian measures the per-series cost of the
// Figure 2 contenders at the paper's practical fault rate.
func BenchmarkFig2AlgoNGSTVsMedian(b *testing.B) {
	damaged, _ := benchSeries(b, 0.025)
	algos := []struct {
		name string
		pre  spaceproc.SeriesPreprocessor
	}{
		{"Median3", spaceproc.Median3{}},
		{"MajorityBit3", spaceproc.MajorityBit3{}},
	}
	for _, lambda := range []int{20, 50, 80, 100} {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
		if err != nil {
			b.Fatal(err)
		}
		algos = append(algos, struct {
			name string
			pre  spaceproc.SeriesPreprocessor
		}{fmt.Sprintf("AlgoNGST_L%d", lambda), a})
	}
	scratch := damaged.Clone()
	for _, alg := range algos {
		b.Run(alg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, damaged)
				alg.pre.ProcessSeries(scratch)
			}
		})
	}
}

// BenchmarkFig3OverheadVsSensitivity is the Figure 3 measurement itself:
// preprocessing cost as a function of Lambda.
func BenchmarkFig3OverheadVsSensitivity(b *testing.B) {
	damaged, _ := benchSeries(b, 0.025)
	scratch := damaged.Clone()
	for lambda := 0; lambda <= 100; lambda += 20 {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Lambda%d", lambda), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, damaged)
				a.ProcessSeries(scratch)
			}
		})
	}
}

// BenchmarkFig4CorrelatedFaults measures repair cost under the correlated
// fault model (the injection itself dominates dataset preparation, so it
// is kept outside the timed loop).
func BenchmarkFig4CorrelatedFaults(b *testing.B) {
	ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
		N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 250,
	}, spaceproc.NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	damaged := ideal.Clone()
	if _, err := (spaceproc.Correlated{GammaIni: 0.1}).InjectSeries(damaged, spaceproc.NewRNG(3)); err != nil {
		b.Fatal(err)
	}
	a, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	scratch := damaged.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, damaged)
		a.ProcessSeries(scratch)
	}
}

// BenchmarkFig5GamutPoint measures one Figure 5 point: synthesis,
// injection and repair at a given mean intensity.
func BenchmarkFig5GamutPoint(b *testing.B) {
	for _, mean := range []uint16{2000, 28000, 60000} {
		b.Run(fmt.Sprintf("mean%d", mean), func(b *testing.B) {
			a, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ser, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
					N: spaceproc.BaselineReadouts, Initial: mean, Sigma: 250,
				}, spaceproc.NewRNGStream(4, uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				spaceproc.Uncorrelated{Gamma0: 0.025}.InjectSeries(ser, spaceproc.NewRNGStream(5, uint64(i)))
				a.ProcessSeries(ser)
			}
		})
	}
}

// BenchmarkFig6Upsilon measures the cost dependence on the number of
// consulted neighbors.
func BenchmarkFig6Upsilon(b *testing.B) {
	damaged, _ := benchSeries(b, 0.025)
	scratch := damaged.Clone()
	for _, upsilon := range []int{2, 4, 6} {
		a, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: upsilon, Sensitivity: 80})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Upsilon%d", upsilon), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, damaged)
				a.ProcessSeries(scratch)
			}
		})
	}
}

// benchCube returns a damaged OTIS cube plus its scene.
func benchCube(b *testing.B, kind spaceproc.OTISKind, gamma0 float64) (*spaceproc.Cube, *spaceproc.OTISScene) {
	b.Helper()
	scene, err := spaceproc.NewOTISScene(spaceproc.DefaultOTISSceneConfig(kind), spaceproc.NewRNG(6))
	if err != nil {
		b.Fatal(err)
	}
	damaged := scene.Cube.Clone()
	spaceproc.Uncorrelated{Gamma0: gamma0}.InjectCube(damaged, spaceproc.NewRNG(7))
	return damaged, scene
}

// BenchmarkFig7OTISPreprocessing measures the Figure 7/8 contenders on one
// damaged OTIS cube.
func BenchmarkFig7OTISPreprocessing(b *testing.B) {
	damaged, scene := benchCube(b, spaceproc.Blob, 0.01)
	algoOTIS, err := spaceproc.NewAlgoOTIS(spaceproc.DefaultOTISConfig(scene.Wavelengths))
	if err != nil {
		b.Fatal(err)
	}
	algos := []struct {
		name string
		pre  spaceproc.CubePreprocessor
	}{
		{"Median3", spaceproc.CubeMedian3{}},
		{"MajorityBit3", spaceproc.CubeMajorityBit3{}},
		{"AlgoOTIS", algoOTIS},
	}
	for _, alg := range algos {
		b.Run(alg.name, func(b *testing.B) {
			scratch := damaged.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch.Data, damaged.Data)
				alg.pre.ProcessCube(scratch)
			}
		})
	}
}

// BenchmarkFig9OTISCorrelated measures AlgoOTIS under correlated damage
// near the breakdown regime.
func BenchmarkFig9OTISCorrelated(b *testing.B) {
	scene, err := spaceproc.NewOTISScene(spaceproc.DefaultOTISSceneConfig(spaceproc.Spots), spaceproc.NewRNG(8))
	if err != nil {
		b.Fatal(err)
	}
	damaged := scene.Cube.Clone()
	if _, err := (spaceproc.Correlated{GammaIni: 0.15}).InjectCube(damaged, spaceproc.NewRNG(9)); err != nil {
		b.Fatal(err)
	}
	algoOTIS, err := spaceproc.NewAlgoOTIS(spaceproc.DefaultOTISConfig(scene.Wavelengths))
	if err != nil {
		b.Fatal(err)
	}
	scratch := damaged.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch.Data, damaged.Data)
		algoOTIS.ProcessCube(scratch)
	}
}

// BenchmarkFig1PipelineTelemetry measures the full Figure 1 master/worker
// baseline (fragment, preprocess, CR-reject, reassemble, compress) with
// the observability layer attached. BenchmarkPipelineRun/Shards1 runs the
// same pipeline uninstrumented; compare the two to measure the cost of
// instrumentation (it should stay within a few percent).
func BenchmarkFig1PipelineTelemetry(b *testing.B) {
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 128, 128
	cfg.Readouts = 16
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(10))
	if err != nil {
		b.Fatal(err)
	}
	reg := spaceproc.NewTelemetryRegistry()
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	pre.Instrument(reg)
	workers := make([]spaceproc.Worker, 4)
	for i := range workers {
		w, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			b.Fatal(err)
		}
		workers[i] = w
	}
	master, err := spaceproc.NewMaster(workers,
		spaceproc.WithTileSize(32), spaceproc.WithTelemetry(reg))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Run(scene.Observed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRiceCompression measures the downlink coder on smooth data.
func BenchmarkRiceCompression(b *testing.B) {
	ser, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{N: 16384, Initial: 27000, Sigma: 30},
		spaceproc.NewRNG(11))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * len(ser)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := spaceproc.RiceEncode(ser); len(out) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkFITSSanity measures the Lambda = 0 header analysis cost.
func BenchmarkFITSSanity(b *testing.B) {
	im := spaceproc.NewImage(128, 128)
	raw := spaceproc.EncodeFITSImage(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, _ := spaceproc.SanityCheckFITS(raw); rep.Fatal {
			b.Fatal("clean header flagged fatal")
		}
	}
}

// BenchmarkRiceFloat32 measures the OTIS radiance coder.
func BenchmarkRiceFloat32(b *testing.B) {
	scene, err := spaceproc.NewOTISScene(spaceproc.DefaultOTISSceneConfig(spaceproc.Blob), spaceproc.NewRNG(14))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(scene.Cube.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := spaceproc.RiceEncodeFloat32(scene.Cube.Data); len(out) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkOTISLocality compares the spatial and spectral voting passes.
func BenchmarkOTISLocality(b *testing.B) {
	damaged, scene := benchCube(b, spaceproc.Stripe, 0.01)
	for _, loc := range []spaceproc.OTISLocality{spaceproc.SpatialLocality, spaceproc.SpectralLocality} {
		cfg := spaceproc.DefaultOTISConfig(scene.Wavelengths)
		cfg.Locality = loc
		a, err := spaceproc.NewAlgoOTIS(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(loc.String(), func(b *testing.B) {
			scratch := damaged.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch.Data, damaged.Data)
				a.ProcessCube(scratch)
			}
		})
	}
}

// BenchmarkFITSDataSum measures checksum generation over one tile HDU.
func BenchmarkFITSDataSum(b *testing.B) {
	im := spaceproc.NewImage(128, 128)
	raw := spaceproc.EncodeFITSImage(im)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spaceproc.WithFITSDataSum(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultInjection measures both injectors (they run inside every
// experiment loop, so their cost bounds experiment turnaround).
func BenchmarkFaultInjection(b *testing.B) {
	words := make([]uint16, 1<<16)
	b.Run("Uncorrelated", func(b *testing.B) {
		src := spaceproc.NewRNG(12)
		b.SetBytes(int64(2 * len(words)))
		for i := 0; i < b.N; i++ {
			spaceproc.Uncorrelated{Gamma0: 0.01}.InjectWords16(words, src)
		}
	})
	b.Run("Correlated", func(b *testing.B) {
		src := spaceproc.NewRNG(13)
		b.SetBytes(int64(2 * len(words)))
		for i := 0; i < b.N; i++ {
			if _, err := (spaceproc.Correlated{GammaIni: 0.1}).InjectGrid16(words, 256, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
