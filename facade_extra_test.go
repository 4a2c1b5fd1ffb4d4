package spaceproc_test

import (
	"context"
	"path/filepath"
	"testing"

	"spaceproc"
)

func TestNVPThroughFacade(t *testing.T) {
	peak := func(s spaceproc.Series) ([]float64, error) {
		var m float64
		for _, v := range s {
			if f := float64(v); f > m {
				m = f
			}
		}
		return []float64{m}, nil
	}
	e, err := spaceproc.NewSeriesNVP(spaceproc.SeriesNVPConfig{
		Versions: []func(spaceproc.Series) ([]float64, error){peak, peak, peak},
		Agree:    spaceproc.FloatSliceComparator(1e-9, 1e-12),
		T:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := e.Run(spaceproc.Series{1, 5, 3})
	if err != nil || out[0] != 5 || rep.Winner < 0 {
		t.Fatalf("out=%v rep=%+v err=%v", out, rep, err)
	}
}

func TestABFTThroughFacade(t *testing.T) {
	a := spaceproc.NewABFTMatrix(2, 2)
	b := spaceproc.NewABFTMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	b.Set(0, 0, 3)
	b.Set(1, 1, 4)
	product, v, err := spaceproc.ABFTMulChecked(a, b, 1e-9, func(p *spaceproc.ABFTMatrix) {
		p.Set(0, 1, 42)
	})
	if err != nil || !v.Corrected {
		t.Fatalf("verdict %+v err=%v", v, err)
	}
	if product.At(0, 1) != 0 {
		t.Fatalf("correction wrong: %v", product.At(0, 1))
	}
	if _, err := spaceproc.ABFTMul(a, spaceproc.NewABFTMatrix(3, 3)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestDownlinkThroughFacade(t *testing.T) {
	s := spaceproc.NewDownlinkScheduler()
	if err := s.Enqueue(spaceproc.DownlinkProduct{ID: "b0", Bytes: 100, Priority: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(spaceproc.DownlinkProduct{ID: "b1", Bytes: 100, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	pass := s.Plan(100)
	if len(pass.Sent) != 1 || pass.Sent[0].ID != "b0" {
		t.Fatalf("pass %+v", pass)
	}
}

func TestMissionThroughFacade(t *testing.T) {
	cfg := spaceproc.DefaultMissionConfig(t.TempDir())
	cfg.Baselines = 1
	cfg.PassBudget = 1 << 20
	rep, err := spaceproc.RunMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanPsi <= 0 || len(rep.Passes) != 1 {
		t.Fatalf("report %+v", rep)
	}
}

func TestBaselineFileThroughFacade(t *testing.T) {
	st := spaceproc.NewStack(3, 8, 8)
	for i, f := range st.Frames {
		for j := range f.Pix {
			f.Pix[j] = uint16(1000*i + j)
		}
	}
	path := filepath.Join(t.TempDir(), "b.fits")
	if err := spaceproc.SaveBaselineFile(path, st); err != nil {
		t.Fatal(err)
	}
	back, rep, err := spaceproc.LoadBaselineFile(path)
	if err != nil || rep.Frames != 3 {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if back.Frames[2].At(1, 1) != st.Frames[2].At(1, 1) {
		t.Fatal("round trip corrupted pixels")
	}
	spaceproc.InterpolateLostFrames(back, nil) // no-op, must not panic
}

func TestMultiHDUThroughFacade(t *testing.T) {
	st := spaceproc.NewStack(2, 4, 4)
	files, err := spaceproc.DecodeFITSMulti(spaceproc.EncodeFITSStack(st))
	if err != nil || len(files) != 2 {
		t.Fatalf("files=%d err=%v", len(files), err)
	}
	if _, err := spaceproc.StackFromFITSHDUs(files); err != nil {
		t.Fatal(err)
	}
}

func TestRiceFloat32ThroughFacade(t *testing.T) {
	samples := []float32{1.5, 2.25, 3.125, 4}
	dec, err := spaceproc.RiceDecodeFloat32(spaceproc.RiceEncodeFloat32(samples))
	if err != nil || len(dec) != 4 || dec[2] != 3.125 {
		t.Fatalf("dec=%v err=%v", dec, err)
	}
}

func TestSensitivityLoopThroughFacade(t *testing.T) {
	cal := &spaceproc.Calibration{Rates: []float64{0.001, 0.05}, Lambdas: []int{40, 100}}
	loop := spaceproc.NewSensitivityLoop(cal, 0.001)
	if loop.Sensitivity() != 40 {
		t.Fatalf("initial %d", loop.Sensitivity())
	}
	// Telemetry showing heavy correction activity drives Lambda up.
	stats := spaceproc.VoteStats{Series: 10, BitsWindowA: 600, BitsWindowB: 200, WindowCBit: 8}
	loop.Observe(stats, spaceproc.BaselineReadouts)
	if loop.Sensitivity() != 100 {
		t.Fatalf("after storm telemetry %d (estimate %v)", loop.Sensitivity(), loop.LastEstimate())
	}
}

func TestRunContextThroughFacade(t *testing.T) {
	scene, err := spaceproc.NewScene(func() spaceproc.SceneConfig {
		c := spaceproc.DefaultSceneConfig()
		c.Width, c.Height, c.Readouts = 32, 32, 8
		return c
	}(), spaceproc.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := spaceproc.NewLocalWorker(nil, spaceproc.DefaultCRConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.AddWorker(w)
	if res := <-pool.Submit(context.Background(), scene.Observed); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestRampModeThroughFacade(t *testing.T) {
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Mode = spaceproc.RampReadouts
	cfg.Width, cfg.Height, cfg.Readouts = 16, 16, 8
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Ramps accumulate: the last readout dominates the first.
	first := scene.Ideal.Frames[0].At(8, 8)
	last := scene.Ideal.Frames[7].At(8, 8)
	if last <= first {
		t.Fatalf("ramp not accumulating: %d -> %d", first, last)
	}
}
