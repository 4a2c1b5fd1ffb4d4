package sweep

import (
	"fmt"
	"time"

	"spaceproc/internal/core"
	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
	"spaceproc/internal/telemetry"
)

// NGSTConfig parameterizes the NGST-benchmark experiments (Figures 2-6).
type NGSTConfig struct {
	// Trials is the number of independent datasets per measured point.
	Trials int
	// N is the series length (readouts per baseline).
	N int
	// Sigma is the Gaussian temporal model's step deviation.
	Sigma float64
	// Initial is Pi(1).
	Initial uint16
	// Telemetry, when non-nil, receives every constructed algorithm's
	// correction counters (preprocess_*), aggregated across the sweep.
	Telemetry *telemetry.Registry
}

// DefaultNGSTConfig returns the paper-matching parameters: N = 64 readouts,
// Pi(1) = 27000 (Section 6), sigma representative of the simulated NGST
// datasets.
func DefaultNGSTConfig() NGSTConfig {
	return NGSTConfig{Trials: 40, N: 64, Sigma: 250, Initial: 27000}
}

// Validate reports whether the configuration is usable.
func (c NGSTConfig) Validate() error {
	if c.Trials <= 0 || c.N <= 0 {
		return fmt.Errorf("sweep: trials and N must be positive (%d, %d)", c.Trials, c.N)
	}
	if c.Sigma < 0 {
		return fmt.Errorf("sweep: negative sigma %v", c.Sigma)
	}
	return nil
}

// gamma0Sweep is the uncorrelated flip-probability axis of Figures 2.
var gamma0Sweep = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3}

// fig2Sensitivities are the Lambda values plotted in Figure 2.
var fig2Sensitivities = []int{20, 50, 80, 100}

// seriesPreprocessorError measures mean Psi for a series preprocessor over
// cfg.Trials datasets at the given injector. inject must damage the series
// in place and is called with a deterministic per-trial stream.
func seriesPreprocessorError(cfg NGSTConfig, pre core.SeriesPreprocessor, seed uint64,
	inject func(dataset.Series, *rng.Source)) float64 {

	var acc metrics.Accumulator
	for trial := 0; trial < cfg.Trials; trial++ {
		dataSrc := rng.NewStream(seed, uint64(trial)*2)
		faultSrc := rng.NewStream(seed, uint64(trial)*2+1)
		ideal, err := synth.GaussianSeries(synth.SeriesConfig{N: cfg.N, Initial: cfg.Initial, Sigma: cfg.Sigma}, dataSrc)
		if err != nil {
			panic(err) // config validated by callers
		}
		damaged := ideal.Clone()
		inject(damaged, faultSrc)
		if pre != nil {
			pre.ProcessSeries(damaged)
		}
		acc.Add(metrics.SeriesError(damaged, ideal))
	}
	return acc.Mean()
}

// Fig2 regenerates Figure 2: Psi vs Gamma0 under the uncorrelated fault
// model, for Algo_NGST at several sensitivities against median smoothing
// and no preprocessing.
func Fig2(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig2")()
	res := &Result{
		ID:     "fig2",
		Title:  "Psi vs Gamma0, uncorrelated faults (NGST series)",
		XLabel: "Gamma0",
		YLabel: "average relative error Psi",
	}
	algos := []struct {
		name string
		pre  core.SeriesPreprocessor
	}{
		{"NoPreprocessing", nil},
		{"Median3", core.Median3{}},
	}
	for _, lambda := range fig2Sensitivities {
		a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
		if err != nil {
			return nil, err
		}
		a.Instrument(cfg.Telemetry)
		algos = append(algos, struct {
			name string
			pre  core.SeriesPreprocessor
		}{fmt.Sprintf("AlgoNGST(L=%d)", lambda), a})
	}
	for _, alg := range algos {
		s := Series{Name: alg.name}
		for _, g := range gamma0Sweep {
			injector := fault.Uncorrelated{Gamma0: g}
			psi := seriesPreprocessorError(cfg, alg.pre, seed, func(ser dataset.Series, src *rng.Source) {
				injector.InjectSeries(ser, src)
			})
			s.Points = append(s.Points, Point{X: g, Y: psi})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig3 regenerates Figure 3: preprocessing execution overhead as a
// function of sensitivity Lambda, against the (flat) cost of the two
// generic filters. Y is nanoseconds per 64-pixel series.
func Fig3(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig3")()
	res := &Result{
		ID:     "fig3",
		Title:  "preprocessing overhead vs sensitivity Lambda",
		XLabel: "Lambda",
		YLabel: "ns per series",
	}

	// Pre-generate damaged datasets so timing excludes synthesis.
	data := make([]dataset.Series, 64)
	injector := fault.Uncorrelated{Gamma0: 0.025}
	for i := range data {
		src := rng.NewStream(seed, uint64(i))
		ser, err := synth.GaussianSeries(synth.SeriesConfig{N: cfg.N, Initial: cfg.Initial, Sigma: cfg.Sigma}, src)
		if err != nil {
			return nil, err
		}
		injector.InjectSeries(ser, rng.NewStream(seed+1, uint64(i)))
		data[i] = ser
	}
	timePre := func(pre core.SeriesPreprocessor) float64 {
		const reps = 50
		scratch := make(dataset.Series, cfg.N)
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, ser := range data {
				copy(scratch, ser)
				pre.ProcessSeries(scratch)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(data))
	}

	var ngst Series
	ngst.Name = "AlgoNGST"
	for lambda := 0; lambda <= 100; lambda += 10 {
		a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
		if err != nil {
			return nil, err
		}
		a.Instrument(cfg.Telemetry)
		ngst.Points = append(ngst.Points, Point{X: float64(lambda), Y: timePre(a)})
	}
	res.Series = append(res.Series, ngst)

	for _, alg := range []struct {
		name string
		pre  core.SeriesPreprocessor
	}{{"Median3", core.Median3{}}, {"MajorityBit3", core.MajorityBit3{}}} {
		y := timePre(alg.pre)
		s := Series{Name: alg.name}
		for lambda := 0; lambda <= 100; lambda += 10 {
			s.Points = append(s.Points, Point{X: float64(lambda), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig3Layout regenerates the Figure 3 overhead study for the kernel
// layout: ns per series vs Lambda for AlgoNGST through the bit-sliced
// plane-major path against the same algorithm pinned to the scalar
// kernels (ScalarOnly), with the flat generic filters for reference.
// Both AlgoNGST variants run the warm-scratch path, so the gap is pure
// kernel layout — the transpose plus word-parallel voting against the
// per-way value loops — not allocation noise.
func Fig3Layout(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig3layout")()
	res := &Result{
		ID:     "fig3layout",
		Title:  "preprocessing overhead vs sensitivity Lambda, plane-major vs scalar kernels",
		XLabel: "Lambda",
		YLabel: "ns per series",
	}

	// Pre-generate damaged datasets so timing excludes synthesis.
	data := make([]dataset.Series, 64)
	injector := fault.Uncorrelated{Gamma0: 0.025}
	for i := range data {
		src := rng.NewStream(seed, uint64(i))
		ser, err := synth.GaussianSeries(synth.SeriesConfig{N: cfg.N, Initial: cfg.Initial, Sigma: cfg.Sigma}, src)
		if err != nil {
			return nil, err
		}
		injector.InjectSeries(ser, rng.NewStream(seed+1, uint64(i)))
		data[i] = ser
	}
	timePre := func(pass func(dataset.Series, *core.VoteScratch, *core.VoteStats)) float64 {
		const reps = 50
		scratch := make(dataset.Series, cfg.N)
		sc := core.NewVoteScratch()
		copy(scratch, data[0])
		pass(scratch, sc, nil) // warm the scratch
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, ser := range data {
				copy(scratch, ser)
				pass(scratch, sc, nil)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(data))
	}

	for _, variant := range []struct {
		name       string
		scalarOnly bool
	}{{"AlgoNGST(plane)", false}, {"AlgoNGST(scalar)", true}} {
		s := Series{Name: variant.name}
		for lambda := 0; lambda <= 100; lambda += 10 {
			a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: 4, Sensitivity: lambda, ScalarOnly: variant.scalarOnly})
			if err != nil {
				return nil, err
			}
			a.Instrument(cfg.Telemetry)
			s.Points = append(s.Points, Point{X: float64(lambda), Y: timePre(a.ProcessSeriesScratch)})
		}
		res.Series = append(res.Series, s)
	}

	median3 := func(s dataset.Series, _ *core.VoteScratch, _ *core.VoteStats) { core.Median3{}.ProcessSeries(s) }
	for _, alg := range []struct {
		name string
		pass func(dataset.Series, *core.VoteScratch, *core.VoteStats)
	}{{"Median3", median3}, {"MajorityBit3", core.MajorityBit3{}.ProcessSeriesScratch}} {
		y := timePre(alg.pass)
		s := Series{Name: alg.name}
		for lambda := 0; lambda <= 100; lambda += 10 {
			s.Points = append(s.Points, Point{X: float64(lambda), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// gammaIniSweep is the correlated run-initiation probability axis of
// Figures 4 and 9.
var gammaIniSweep = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}

// Fig4 regenerates Figure 4: Psi vs GammaIni under the correlated fault
// model for Algo_NGST against both generic filters.
func Fig4(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig4")()
	res := &Result{
		ID:     "fig4",
		Title:  "Psi vs GammaIni, correlated faults (NGST series)",
		XLabel: "GammaIni",
		YLabel: "average relative error Psi",
	}
	a, err := core.NewAlgoNGST(core.DefaultNGSTConfig())
	if err != nil {
		return nil, err
	}
	a.Instrument(cfg.Telemetry)
	algos := []struct {
		name string
		pre  core.SeriesPreprocessor
	}{
		{"NoPreprocessing", nil},
		{"Median3", core.Median3{}},
		{"MajorityBit3", core.MajorityBit3{}},
		{"AlgoNGST(L=80)", a},
	}
	for _, alg := range algos {
		s := Series{Name: alg.name}
		for _, g := range gammaIniSweep {
			injector := fault.Correlated{GammaIni: g}
			psi := seriesPreprocessorError(cfg, alg.pre, seed, func(ser dataset.Series, src *rng.Source) {
				if _, err := injector.InjectSeries(ser, src); err != nil {
					panic(err)
				}
			})
			s.Points = append(s.Points, Point{X: g, Y: psi})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// bestLambdaError returns the minimum Psi over the Lambda grid — the
// paper's "optimum Lambda for each dataset" protocol (Figure 5).
func bestLambdaError(cfg NGSTConfig, upsilon int, seed uint64,
	inject func(dataset.Series, *rng.Source)) float64 {

	best := -1.0
	for _, lambda := range []int{20, 50, 80, 100} {
		a, err := core.NewAlgoNGST(core.NGSTConfig{Upsilon: upsilon, Sensitivity: lambda})
		if err != nil {
			panic(err)
		}
		a.Instrument(cfg.Telemetry)
		psi := seriesPreprocessorError(cfg, a, seed, inject)
		if best < 0 || psi < best {
			best = psi
		}
	}
	return best
}

// Fig5 regenerates Figure 5: performance across the entire gamut of mean
// dataset intensities, at Gamma0 = 2.5%, Upsilon = 4, optimum Lambda,
// averaged over 100 datasets per point.
func Fig5(cfg NGSTConfig, seed uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig5")()
	res := &Result{
		ID:     "fig5",
		Title:  "Psi vs mean dataset intensity (Gamma0 = 2.5%)",
		XLabel: "mean intensity",
		YLabel: "average relative error Psi",
	}
	injector := fault.Uncorrelated{Gamma0: 0.025}
	inject := func(ser dataset.Series, src *rng.Source) { injector.InjectSeries(ser, src) }

	intensities := []uint16{2000, 6000, 12000, 20000, 28000, 36000, 44000, 52000, 60000, 64000}
	noPre := Series{Name: "NoPreprocessing"}
	med := Series{Name: "Median3"}
	maj := Series{Name: "MajorityBit3"}
	ngst := Series{Name: "AlgoNGST(bestL)"}
	for _, mean := range intensities {
		pc := cfg
		pc.Initial = mean
		x := float64(mean)
		noPre.Points = append(noPre.Points, Point{X: x, Y: seriesPreprocessorError(pc, nil, seed, inject)})
		med.Points = append(med.Points, Point{X: x, Y: seriesPreprocessorError(pc, core.Median3{}, seed, inject)})
		maj.Points = append(maj.Points, Point{X: x, Y: seriesPreprocessorError(pc, core.MajorityBit3{}, seed, inject)})
		ngst.Points = append(ngst.Points, Point{X: x, Y: bestLambdaError(pc, 4, seed, inject)})
	}
	res.Series = append(res.Series, noPre, med, maj, ngst)
	return res, nil
}

// Fig6Sigmas are the quasi-NGST dataset deviations of Figure 6, from the
// constant dataset to extreme turbulence (overflows truncated).
var Fig6Sigmas = []float64{0, 25, 250, 8000}

// Fig6 regenerates Figure 6: for each sigma, Psi vs Gamma0 for Upsilon in
// {2, 4, 6} at the optimum Lambda. It returns one Result per sigma.
func Fig6(cfg NGSTConfig, seed uint64) ([]*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer traceExperiment(cfg.Telemetry, "fig6")()
	var out []*Result
	for _, sigma := range Fig6Sigmas {
		pc := cfg
		pc.Sigma = sigma
		res := &Result{
			ID:     fmt.Sprintf("fig6(sigma=%g)", sigma),
			Title:  fmt.Sprintf("Psi vs Gamma0 for quasi-NGST sigma=%g, Upsilon comparison", sigma),
			XLabel: "Gamma0",
			YLabel: "average relative error Psi",
		}
		for _, upsilon := range []int{2, 4, 6} {
			s := Series{Name: fmt.Sprintf("Upsilon=%d", upsilon)}
			for _, g := range gamma0Sweep {
				injector := fault.Uncorrelated{Gamma0: g}
				psi := bestLambdaError(pc, upsilon, seed, func(ser dataset.Series, src *rng.Source) {
					injector.InjectSeries(ser, src)
				})
				s.Points = append(s.Points, Point{X: g, Y: psi})
			}
			res.Series = append(res.Series, s)
		}
		noPre := Series{Name: "NoPreprocessing"}
		for _, g := range gamma0Sweep {
			injector := fault.Uncorrelated{Gamma0: g}
			psi := seriesPreprocessorError(pc, nil, seed, func(ser dataset.Series, src *rng.Source) {
				injector.InjectSeries(ser, src)
			})
			noPre.Points = append(noPre.Points, Point{X: g, Y: psi})
		}
		res.Series = append(res.Series, noPre)
		out = append(out, res)
	}
	return out, nil
}
