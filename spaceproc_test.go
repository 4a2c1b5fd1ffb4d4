package spaceproc_test

import (
	"context"
	"testing"

	"spaceproc"
)

// TestQuickstartFlow exercises the README's quickstart path end to end
// through the public API only.
func TestQuickstartFlow(t *testing.T) {
	// 1. Synthesize a baseline series and damage it.
	ideal, err := spaceproc.GaussianSeries(spaceproc.SeriesConfig{
		N: spaceproc.BaselineReadouts, Initial: 27000, Sigma: 250,
	}, spaceproc.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	damaged := ideal.Clone()
	injector := spaceproc.Uncorrelated{Gamma0: 0.025}
	injector.InjectSeries(damaged, spaceproc.NewRNGStream(1, 1))
	before := spaceproc.SeriesError(damaged, ideal)
	if before == 0 {
		t.Fatal("injection had no effect")
	}

	// 2. Preprocess and measure the gain.
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pre.ProcessSeries(damaged)
	after := spaceproc.SeriesError(damaged, ideal)
	if g := spaceproc.Gain(before, after); g < 2 {
		t.Fatalf("quickstart gain %.2f, want > 2", g)
	}
}

func TestPipelineFlowThroughFacade(t *testing.T) {
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 64, 64
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}

	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 4; i++ {
		w, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(w)
	}
	res := <-pool.Submit(context.Background(), scene.Observed)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Hits == 0 {
		t.Fatal("no cosmic rays rejected")
	}
	decoded, err := spaceproc.RiceDecode(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(res.Image.Pix) {
		t.Fatal("downlink payload length mismatch")
	}
}

func TestOTISFlowThroughFacade(t *testing.T) {
	scene, err := spaceproc.NewOTISScene(spaceproc.DefaultOTISSceneConfig(spaceproc.Blob), spaceproc.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	damaged := scene.Cube.Clone()
	spaceproc.Uncorrelated{Gamma0: 0.01}.InjectCube(damaged, spaceproc.NewRNG(4))

	pre, err := spaceproc.NewAlgoOTIS(spaceproc.DefaultOTISConfig(scene.Wavelengths))
	if err != nil {
		t.Fatal(err)
	}
	pre.ProcessCube(damaged)

	retr, err := spaceproc.NewOTISRetriever(spaceproc.DefaultOTISRetrievalConfig(scene.Wavelengths))
	if err != nil {
		t.Fatal(err)
	}
	out, err := retr.Process(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if e := spaceproc.TempError(out.Temps, scene.Temps); e > 5 {
		t.Fatalf("retrieved temperature error %.2f K too high", e)
	}
}

func TestALFTFlowThroughFacade(t *testing.T) {
	scene, err := spaceproc.NewOTISScene(spaceproc.DefaultOTISSceneConfig(spaceproc.Stripe), spaceproc.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	retr, err := spaceproc.NewOTISRetriever(spaceproc.DefaultOTISRetrievalConfig(scene.Wavelengths))
	if err != nil {
		t.Fatal(err)
	}
	exec := &spaceproc.OTISALFT{
		Primary: func(c *spaceproc.Cube) (*spaceproc.OTISOutput, error) { return retr.Process(c) },
		Filters: []spaceproc.OTISFilter{
			spaceproc.TempBoundsFilter(0.97),
			spaceproc.EmissivityFilter(0.95),
		},
	}
	_, rep, err := exec.Run(scene.Cube)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Choice != spaceproc.ChosePrimary {
		t.Fatalf("clean input should pass the primary: %+v", rep)
	}
}

func TestFITSFlowThroughFacade(t *testing.T) {
	im := spaceproc.NewImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = uint16(15000 + i)
	}
	raw := spaceproc.EncodeFITSImage(im)
	// Flip a header bit and repair with the application's knowledge.
	raw[12] ^= 0x04
	rep, fixed := spaceproc.SanityCheckFITS(raw, spaceproc.WithExpectedAxes(32, 32))
	if rep.Fatal {
		t.Fatalf("repair failed: %+v", rep.Issues)
	}
	f, err := spaceproc.DecodeFITS(fixed)
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.Image()
	if err != nil {
		t.Fatal(err)
	}
	if back.At(5, 5) != im.At(5, 5) {
		t.Fatal("pixel data corrupted by header repair")
	}
}

func TestPhysicsExports(t *testing.T) {
	bands := spaceproc.ThermalBands(4)
	if len(bands) != 4 {
		t.Fatal("ThermalBands failed")
	}
	r := spaceproc.SpectralRadiance(bands[0], 300)
	if r <= 0 {
		t.Fatal("SpectralRadiance failed")
	}
	if temp := spaceproc.BrightnessTemperature(bands[0], r); temp < 299.9 || temp > 300.1 {
		t.Fatalf("BrightnessTemperature = %v", temp)
	}
	if spaceproc.MinSceneTemp >= spaceproc.MaxSceneTemp {
		t.Fatal("scene bounds inverted")
	}
}

func TestInterleaverExport(t *testing.T) {
	iv, err := spaceproc.NewInterleaver(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Len() != 256 {
		t.Fatalf("Len = %d", iv.Len())
	}
}
