// NGST pipeline example: the full Figure 1 architecture on one baseline —
// fragment the detector frame into tiles, hand them to workers that
// preprocess and cosmic-ray-reject, reassemble, and Rice-compress for
// downlink. The same baseline is run with and without input preprocessing
// to show the precision gained.
//
//	go run ./examples/ngst_pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"spaceproc"
)

func main() {
	// Simulate a 256x256 region of the detector over a full baseline:
	// a star field plus sky background, with ~10% of pixels struck by
	// cosmic rays (persistent charge steps across the readouts).
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 256, 256
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(7))
	if err != nil {
		log.Fatal(err)
	}

	// Reference output: the fault-free raw data through the pipeline.
	reference := runPipeline(nil, scene.Observed)

	// Damage the raw readouts in memory, then run the pipeline both ways.
	damaged := scene.Observed.Clone()
	flips := spaceproc.Uncorrelated{Gamma0: 0.01}.InjectStack(damaged, spaceproc.NewRNG(8))
	fmt.Printf("baseline: %dx%d, %d readouts; %d bit flips injected\n",
		cfg.Width, cfg.Height, cfg.Readouts, flips)

	withoutPre := runPipeline(nil, damaged.Clone())
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		log.Fatal(err)
	}
	withPre := runPipeline(pre, damaged.Clone())

	psiNo := relErr(withoutPre.Image.Pix, reference.Image.Pix)
	psiPre := relErr(withPre.Image.Pix, reference.Image.Pix)
	fmt.Printf("downlink image error without preprocessing: %.5f\n", psiNo)
	fmt.Printf("downlink image error with preprocessing:    %.5f (gain %.1fx)\n",
		psiPre, spaceproc.Gain(psiNo, psiPre))
	fmt.Printf("cosmic rays removed: %d steps across %d pixels; compression %.2f:1\n",
		withPre.Stats.Steps, withPre.Stats.Hits, withPre.CompressionRatio())
}

// runPipeline builds a 4-worker pool and processes the stack.
func runPipeline(pre spaceproc.SeriesPreprocessor, stack *spaceproc.Stack) *spaceproc.PipelineResult {
	pool, err := spaceproc.NewWorkerPool()
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 4; i++ {
		w, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			log.Fatal(err)
		}
		pool.AddWorker(w)
	}
	res := <-pool.Submit(context.Background(), stack)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	return res
}

func relErr(got, want []uint16) float64 {
	var sum float64
	var n int
	for i := range want {
		if want[i] == 0 {
			continue
		}
		d := float64(got[i]) - float64(want[i])
		if d < 0 {
			d = -d
		}
		sum += d / float64(want[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
