package crreject

import (
	"math"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/metrics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Threshold: 0, SigmaFloor: 1}).Validate(); err == nil {
		t.Error("zero threshold should be invalid")
	}
	if err := (Config{Threshold: 5, SigmaFloor: -1}).Validate(); err == nil {
		t.Error("negative floor should be invalid")
	}
}

// TestConfigRejectsNaN guards the NaN-safe checks: a NaN threshold or
// floor makes every step limit NaN, so a Rejector built from one would
// silently remove no steps. +Inf stays legal and disables step removal.
func TestConfigRejectsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []Config{{Threshold: nan, SigmaFloor: 2}, {Threshold: 5, SigmaFloor: nan}, {Threshold: -inf, SigmaFloor: 2}} {
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) succeeded, want an error", c)
		}
	}
	for _, c := range []Config{{Threshold: inf, SigmaFloor: 2}, {Threshold: 5, SigmaFloor: inf}} {
		if _, err := New(c); err != nil {
			t.Errorf("New(%+v): %v", c, err)
		}
	}
}

func TestIntegrateCleanStack(t *testing.T) {
	// Without CRs, integration is just the temporal mean.
	st := dataset.NewStack(8, 4, 4)
	for i, f := range st.Frames {
		for j := range f.Pix {
			f.Pix[j] = uint16(1000 + i) // mean 1003.5 -> 1004
		}
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.Integrate(st)
	if stats.Hits != 0 || stats.Steps != 0 {
		t.Fatalf("clean stack produced rejections: %+v", stats)
	}
	for _, p := range img.Pix {
		if p != 1004 {
			t.Fatalf("integrated value %d, want 1004", p)
		}
	}
}

func TestIntegrateRemovesStep(t *testing.T) {
	// One pixel is struck at readout 5: +8000 counts persist.
	st := dataset.NewStack(16, 3, 3)
	for _, f := range st.Frames {
		for j := range f.Pix {
			f.Pix[j] = 12000
		}
	}
	for i := 5; i < 16; i++ {
		st.Frames[i].Set(1, 1, 20000)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.Integrate(st)
	if stats.Hits != 1 || stats.Steps != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 step", stats)
	}
	if got := img.At(1, 1); got != 12000 {
		t.Fatalf("struck pixel integrated to %d, want 12000", got)
	}
	if got := img.At(0, 0); got != 12000 {
		t.Fatalf("clean pixel integrated to %d, want 12000", got)
	}
}

func TestIntegrateMultipleSteps(t *testing.T) {
	st := dataset.NewStack(32, 1, 1)
	level := 10000
	for i, f := range st.Frames {
		if i == 8 {
			level += 5000
		}
		if i == 20 {
			level += 7000
		}
		f.Pix[0] = uint16(level)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.Integrate(st)
	if stats.Steps != 2 {
		t.Fatalf("steps = %d, want 2", stats.Steps)
	}
	if got := img.Pix[0]; got != 10000 {
		t.Fatalf("integrated %d, want 10000", got)
	}
}

func TestIntegrateSceneRecoversIdeal(t *testing.T) {
	// Full synthetic scene: integration of the CR-contaminated stack must
	// land close to the integration of the ideal stack.
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height = 32, 32
	sc, err := synth.NewScene(cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotImg, stats := r.Integrate(sc.Observed)
	wantImg, _ := r.Integrate(sc.Ideal)
	if stats.Hits == 0 {
		t.Fatal("no CR hits detected on a 10%-rate scene")
	}
	psi := metrics.RelativeError16(gotImg.Pix, wantImg.Pix)
	if psi > 0.01 {
		t.Fatalf("CR-rejected integration differs from ideal by %.4f", psi)
	}
	// Without rejection, the naive mean must be visibly worse.
	naive := naiveMean(sc.Observed)
	psiNaive := metrics.RelativeError16(naive.Pix, wantImg.Pix)
	if psiNaive < 5*psi {
		t.Fatalf("rejection gained too little: with %.5f, naive %.5f", psi, psiNaive)
	}
}

func naiveMean(s *dataset.Stack) *dataset.Image {
	w, h := s.Width(), s.Height()
	out := dataset.NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum float64
			for _, f := range s.Frames {
				sum += float64(f.At(x, y))
			}
			out.Set(x, y, uint16(sum/float64(s.Len())+0.5))
		}
	}
	return out
}

func TestIntegrateDetectionStats(t *testing.T) {
	// Detection recall on known hits should be high; false detections on
	// clean pixels low.
	cfg := synth.DefaultSceneConfig()
	cfg.Width, cfg.Height = 48, 48
	cfg.TemporalSigma = 40
	sc, err := synth.NewScene(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, stats := r.Integrate(sc.Observed)
	want := len(sc.CRHits)
	if stats.Hits < want*8/10 {
		t.Fatalf("recall too low: detected %d of %d struck pixels", stats.Hits, want)
	}
	if stats.Hits > want*13/10 {
		t.Fatalf("too many detections: %d vs %d true hits", stats.Hits, want)
	}
}

func TestIntegrateEmptyAndTiny(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img, stats := r.Integrate(dataset.NewStack(1, 2, 2))
	if stats.Hits != 0 || img.Width != 2 {
		t.Fatal("single-readout stack mishandled")
	}
}

func TestMadSigma(t *testing.T) {
	if got, _ := madSigma(nil, nil); got != 0 {
		t.Fatalf("empty madSigma = %v", got)
	}
	// Standard normal-ish spread: MAD of {-1,0,1} = 1 -> sigma ~1.48.
	if got, _ := madSigma([]int32{-1, 0, 1}, nil); math.Abs(got-1.4826) > 1e-9 {
		t.Fatalf("madSigma = %v", got)
	}
	// Robust to one huge outlier.
	if got, _ := madSigma([]int32{-1, 0, 1, 0, -1, 1e9}, nil); got > 3 {
		t.Fatalf("madSigma not robust: %v", got)
	}
}
