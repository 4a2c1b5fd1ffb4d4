package spaceproc_test

import (
	"context"
	"fmt"
	"testing"

	"spaceproc"
)

// The tentpole benchmarks: the allocation-free preprocessing hot path
// against the classic allocating entry points, from a single series up to
// the full Figure 1 pipeline. All report allocations; BENCH_<date>.json
// (make bench) tracks them across revisions.

// BenchmarkProcessSeries compares one AlgoNGST series pass through the
// allocating entry point and through a warm scratch.
func BenchmarkProcessSeries(b *testing.B) {
	damaged, _ := benchSeries(b, 0.025)
	a, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	ser := damaged.Clone()
	b.Run("Alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(ser, damaged)
			a.ProcessSeries(ser)
		}
	})
	b.Run("Scratch", func(b *testing.B) {
		sc := spaceproc.NewVoteScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(ser, damaged)
			a.ProcessSeriesScratch(ser, sc, nil)
		}
	})
}

// BenchmarkProcessSeriesScalar pins AlgoNGST to the classic scalar
// kernels (ScalarOnly) on the warm-scratch path: the in-artifact
// reference point the plane-major BenchmarkProcessSeries/Scratch number
// is read against.
func BenchmarkProcessSeriesScalar(b *testing.B) {
	damaged, _ := benchSeries(b, 0.025)
	cfg := spaceproc.DefaultNGSTConfig()
	cfg.ScalarOnly = true
	a, err := spaceproc.NewAlgoNGST(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ser := damaged.Clone()
	sc := spaceproc.NewVoteScratch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(ser, damaged)
		a.ProcessSeriesScratch(ser, sc, nil)
	}
}

// BenchmarkProcessStack measures a whole-stack preprocessing pass (the
// per-tile work of a worker) through the scratch-reusing ProcessStackWith.
func BenchmarkProcessStack(b *testing.B) {
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 32, 32
	cfg.Readouts = 16
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(20))
	if err != nil {
		b.Fatal(err)
	}
	a, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	stack := scene.Observed.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spaceproc.ProcessStackWith(a, stack)
	}
}

// BenchmarkProcessStackDepth measures a worker's per-tile vote, one
// ProcessStackPlanes pass over a 128x128 tile with a warm scratch, at the
// depths that select each lane stride of the plane kernel: 16 readouts
// (four pixels per plane word, the serve workloads' depth), 32 (two) and
// 64 (one), and at 4 and 8, shallow stacks the stride-16 kernel also
// votes four to a word. The damaged frames are restored outside the timer before
// every pass; ns/sample divides the pass by the tile's readout count.
func BenchmarkProcessStackDepth(b *testing.B) {
	a, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{4, 8, 16, 32, 64} {
		cfg := spaceproc.DefaultSceneConfig()
		cfg.Width, cfg.Height = 128, 128
		cfg.Readouts = depth
		scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(40))
		if err != nil {
			b.Fatal(err)
		}
		damaged := scene.Observed
		spaceproc.Uncorrelated{Gamma0: 0.01}.InjectStack(damaged, spaceproc.NewRNGStream(40, 1))
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			npix := cfg.Width * cfg.Height
			work := damaged.Clone()
			sc := spaceproc.NewVoteScratch()
			a.ProcessStackPlanes(work, 0, npix, sc, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for t, f := range damaged.Frames {
					copy(work.Frames[t].Pix, f.Pix)
				}
				b.StartTimer()
				a.ProcessStackPlanes(work, 0, npix, sc, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*npix*depth), "ns/sample")
		})
	}
}

// BenchmarkPipelineRun measures the full master/worker pipeline, a
// 128x128x16 baseline in 32-pixel tiles over four warm LocalWorkers, at
// worker shard counts of 1 (classic) and 0 (auto = GOMAXPROCS). Its B/op
// and allocs/op are what one baseline costs the master: the tile results,
// the frame and its Rice payload. The kernels' scratch is pooled and each
// tile is gathered into its runner's warm stack, so neither the stack's
// pixels nor its tiles' are copied per baseline.
func BenchmarkPipelineRun(b *testing.B) {
	cfg := spaceproc.DefaultSceneConfig()
	cfg.Width, cfg.Height = 128, 128
	cfg.Readouts = 16
	scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(10))
	if err != nil {
		b.Fatal(err)
	}
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 0} {
		name := fmt.Sprintf("Shards%d", shards)
		if shards == 0 {
			name = "ShardsAuto"
		}
		b.Run(name, func(b *testing.B) {
			pool, err := spaceproc.NewWorkerPool(spaceproc.WithPoolTileSize(32))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(pool.Close)
			for i := 0; i < 4; i++ {
				w, err := spaceproc.NewLocalWorker(pre, spaceproc.DefaultCRConfig(), spaceproc.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				pool.AddWorker(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := <-pool.Submit(context.Background(), scene.Observed); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkCRIntegrate measures cosmic-ray rejection, the stage after the
// voter in every worker tile: a 128x128 tile repaired by AlgoNGST, then
// integrated by Integrate (stationary readouts) or IntegrateRamp (an
// accumulating ramp) at the serve path's 16 and the paper's 64 readouts;
// Integrate also at 32, the bit-plane kernel's middle lane stride.
// ns/sample divides a pass by the tile's readout count.
func BenchmarkCRIntegrate(b *testing.B) {
	pre, err := spaceproc.NewAlgoNGST(spaceproc.DefaultNGSTConfig())
	if err != nil {
		b.Fatal(err)
	}
	rej, err := spaceproc.NewCRRejector(spaceproc.DefaultCRConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		mode      spaceproc.ReadoutMode
		integrate func(*spaceproc.Stack) (*spaceproc.Image, spaceproc.CRStats)
		depths    []int
	}{
		{"Integrate", spaceproc.StationaryReadouts, rej.Integrate, []int{16, 32, 64}},
		{"Ramp", spaceproc.RampReadouts, rej.IntegrateRamp, []int{16, 64}},
	} {
		for _, readouts := range tc.depths {
			cfg := spaceproc.DefaultSceneConfig()
			cfg.Mode = tc.mode
			cfg.Readouts = readouts
			scene, err := spaceproc.NewScene(cfg, spaceproc.NewRNG(30))
			if err != nil {
				b.Fatal(err)
			}
			stack := scene.Observed.Clone()
			spaceproc.ProcessStackWith(pre, stack)
			b.Run(fmt.Sprintf("%s%d", tc.name, readouts), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.integrate(stack)
				}
				npix := cfg.Width * cfg.Height
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*npix*readouts), "ns/sample")
			})
		}
	}
}
