// Closed-loop example: instead of predicting the radiation environment
// from an orbit model, estimate the operating fault rate from the
// preprocessing telemetry itself — corrected bits per processed bit — and
// feed it back into the calibrated sensitivity table for the next
// baseline. The controller rides the rate up into a storm and back down
// without any external knowledge.
//
//	go run ./examples/closed_loop
package main

import (
	"fmt"
	"log"

	"spaceproc"
)

func main() {
	cal, err := spaceproc.Calibrate(spaceproc.DefaultCalibrationConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	loop := spaceproc.NewSensitivityLoop(cal, 0.001)

	// A storm profile: quiet, rising, peak, decaying, quiet.
	profile := []float64{0.001, 0.001, 0.01, 0.05, 0.05, 0.01, 0.001, 0.001}
	fmt.Printf("%4s  %9s  %4s  %10s  %10s\n", "step", "true G0", "L", "est. G0", "Psi")
	for step, gamma0 := range profile {
		lambda := loop.Sensitivity()
		pre, err := spaceproc.NewAlgoNGST(spaceproc.NGSTConfig{Upsilon: 4, Sensitivity: lambda})
		if err != nil {
			log.Fatal(err)
		}

		// One "baseline" of 256 series at the current true rate.
		sc := spaceproc.NewVoteScratch()
		var stats spaceproc.VoteStats
		var psiSum float64
		const series = 256
		for i := uint64(0); i < series; i++ {
			stream := uint64(step)*1000 + i
			ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
				N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 100,
			}, spaceproc.NewRNGStream(10, stream))
			if err != nil {
				log.Fatal(err)
			}
			damaged := ideal.Clone()
			spaceproc.Uncorrelated{Gamma0: gamma0}.InjectSeries(damaged, spaceproc.NewRNGStream(20, stream))
			pre.ProcessSeriesScratch(damaged, sc, &stats)
			psiSum += spaceproc.SeriesError(damaged, ideal)
		}

		fmt.Printf("%4d  %9.4f  %4d  %10.5f  %10.6f\n",
			step, gamma0, lambda, spaceproc.EstimateFaultRate(stats, spaceproc.BaselineReadouts), psiSum/series)
		loop.Observe(stats, spaceproc.BaselineReadouts)
	}
}
