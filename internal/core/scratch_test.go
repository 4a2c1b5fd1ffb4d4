package core

import (
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
)

// damagedSeries synthesizes a smooth series with rng-driven bit flips, the
// workload of the zero-allocation regression tests.
func damagedSeries(rng *rand.Rand, n int) dataset.Series {
	s := make(dataset.Series, n)
	base := 20000 + rng.Intn(20000)
	for i := range s {
		s[i] = uint16(base + rng.Intn(400) - 200)
	}
	for i := range s {
		if rng.Float64() < 0.05 {
			s[i] ^= 1 << uint(rng.Intn(16))
		}
	}
	return s
}

// seriesPass is one algorithm's allocation-free per-series pass.
type seriesPass struct {
	name string
	pass func(s dataset.Series, sc *VoteScratch, stats *VoteStats)
}

// scratchPasses lists the per-series scratch pass of every series
// algorithm: AlgoNGST's and MajorityBit3's ProcessSeriesScratch, and
// Median3's buffer-free ProcessSeries.
func scratchPasses(ngst *AlgoNGST) []seriesPass {
	return []seriesPass{
		{ngst.Name(), ngst.ProcessSeriesScratch},
		{Median3{}.Name(), func(s dataset.Series, _ *VoteScratch, _ *VoteStats) { Median3{}.ProcessSeries(s) }},
		{MajorityBit3{}.Name(), MajorityBit3{}.ProcessSeriesScratch},
	}
}

// TestProcessSeriesScratchZeroAlloc is the tentpole's regression gate: the
// steady-state per-series pass of every series algorithm must not touch
// the heap once its scratch is warm.
func TestProcessSeriesScratchZeroAlloc(t *testing.T) {
	ngst, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	damaged := damagedSeries(rng, 64)
	for _, pre := range scratchPasses(ngst) {
		t.Run(pre.name, func(t *testing.T) {
			sc := NewVoteScratch()
			ser := damaged.Clone()
			var stats VoteStats
			// Warm the scratch (first pass sizes every buffer).
			pre.pass(ser, sc, &stats)
			allocs := testing.AllocsPerRun(100, func() {
				copy(ser, damaged)
				pre.pass(ser, sc, &stats)
			})
			if allocs != 0 {
				t.Fatalf("%s: ProcessSeriesScratch allocates %.1f objects per series with a warm scratch, want 0",
					pre.name, allocs)
			}
		})
	}
}

// TestProcessSeriesScratchZeroAllocUpsilonSweep guards the way buffers:
// every Upsilon reshapes the voter matrix, and each shape must still reuse
// the scratch.
func TestProcessSeriesScratchZeroAllocUpsilonSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	damaged := damagedSeries(rng, 64)
	sc := NewVoteScratch()
	for _, upsilon := range []int{2, 4, 6, 8} {
		a, err := NewAlgoNGST(NGSTConfig{Upsilon: upsilon, Sensitivity: 80})
		if err != nil {
			t.Fatal(err)
		}
		ser := damaged.Clone()
		a.ProcessSeriesScratch(ser, sc, nil)
		allocs := testing.AllocsPerRun(50, func() {
			copy(ser, damaged)
			a.ProcessSeriesScratch(ser, sc, nil)
		})
		if allocs != 0 {
			t.Fatalf("Upsilon=%d: %.1f allocs per series with a warm scratch, want 0", upsilon, allocs)
		}
	}
}

// TestScratchMatchesAllocatingPath is the differential gate: across many
// randomized fault-injected series, the scratch-based and allocating paths
// must produce bit-identical corrections and identical stats.
func TestScratchMatchesAllocatingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ngst, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	pres := []SeriesPreprocessor{ngst, Median3{}, MajorityBit3{}}
	passes := scratchPasses(ngst)
	sc := NewVoteScratch()
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(120)
		damaged := damagedSeries(rng, n)
		for k, pre := range pres {
			viaAlloc := damaged.Clone()
			viaScratch := damaged.Clone()
			var statsAlloc, statsScratch VoteStats
			if a, ok := pre.(*AlgoNGST); ok {
				a.ProcessSeriesScratch(viaAlloc, nil, &statsAlloc)
			} else {
				pre.ProcessSeries(viaAlloc)
			}
			passes[k].pass(viaScratch, sc, &statsScratch)
			for i := range viaAlloc {
				if viaAlloc[i] != viaScratch[i] {
					t.Fatalf("trial %d %s: pixel %d diverges: allocating=%04x scratch=%04x",
						trial, pre.Name(), i, viaAlloc[i], viaScratch[i])
				}
			}
			if _, ok := pre.(*AlgoNGST); ok && statsAlloc != statsScratch {
				t.Fatalf("trial %d %s: stats diverge: allocating=%+v scratch=%+v",
					trial, pre.Name(), statsAlloc, statsScratch)
			}
		}
	}
}

// TestCubeScratchMatchesAllocatingPath runs AlgoOTIS through a shared
// scratch and a fresh pass on the same damaged cube and requires identical
// output and stats.
func TestCubeScratchMatchesAllocatingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, loc := range []OTISLocality{SpatialLocality, SpectralLocality} {
		c := dataset.NewCube(24, 24, 8)
		for i := range c.Data {
			c.Data[i] = 5 + 0.1*float32(rng.NormFloat64())
		}
		for i := range c.Data {
			if rng.Float64() < 0.01 {
				b := c.Data[i]
				c.Data[i] = b * float32(uint32(1)<<uint(rng.Intn(8)))
			}
		}
		cfg := OTISConfig{Sensitivity: 80, TrendGuard: true, Locality: loc}
		a, err := NewAlgoOTIS(cfg)
		if err != nil {
			t.Fatal(err)
		}
		viaAlloc, viaScratch := c.Clone(), c.Clone()
		var statsAlloc, statsScratch CubeStats
		a.ProcessCubeScratch(viaAlloc, nil, &statsAlloc)
		sc := NewCubeScratch()
		a.ProcessCubeScratch(viaScratch, sc, &statsScratch)
		// And again through the now-warm scratch, to catch stale-buffer
		// carry-over between cubes.
		second := c.Clone()
		a.ProcessCubeScratch(second, sc, nil)
		for i := range viaAlloc.Data {
			if viaAlloc.Data[i] != viaScratch.Data[i] {
				t.Fatalf("%v: sample %d diverges: allocating=%v scratch=%v",
					loc, i, viaAlloc.Data[i], viaScratch.Data[i])
			}
			if viaAlloc.Data[i] != second.Data[i] {
				t.Fatalf("%v: sample %d diverges on warm reuse: %v vs %v",
					loc, i, viaAlloc.Data[i], second.Data[i])
			}
		}
		if statsAlloc != statsScratch {
			t.Fatalf("%v: stats diverge: allocating=%+v scratch=%+v", loc, statsAlloc, statsScratch)
		}
	}
}

// TestProcessCubeScratchZeroAlloc pins the sequential cube pass, which
// testing.AllocsPerRun's GOMAXPROCS 1 selects, at zero heap allocations
// with a warm scratch, with and without a stats collector. The band
// fan-out's closures must not drag the pass's own stats onto the heap.
func TestProcessCubeScratchZeroAlloc(t *testing.T) {
	src := damagedCube(rand.New(rand.NewSource(4)), 40, 24, 8)
	for _, loc := range []OTISLocality{SpatialLocality, SpectralLocality} {
		a := newOTIS(t, OTISConfig{Sensitivity: 80, TrendGuard: true, Locality: loc})
		c, sc := src.Clone(), NewCubeScratch()
		var stats CubeStats
		a.ProcessCubeScratch(c, sc, &stats)
		for _, st := range []*CubeStats{&stats, nil} {
			allocs := testing.AllocsPerRun(20, func() {
				copy(c.Data, src.Data)
				a.ProcessCubeScratch(c, sc, st)
			})
			if allocs != 0 {
				t.Errorf("%v, stats %v: %.1f allocations per cube with a warm scratch, want 0", loc, st != nil, allocs)
			}
		}
	}
}

// TestVoteStatsAddZeroMerge is the WindowCBit regression test: merging the
// zero-value stats of a tile that ran without preprocessing must not
// clobber the aggregate's window boundary, which is exactly the mixed-tile
// aggregation the cluster master performs in out.PreStats.Add.
func TestVoteStatsAddZeroMerge(t *testing.T) {
	agg := VoteStats{Series: 3, Corrected: 2, BitsWindowA: 1, BitsWindowB: 4, WindowCBit: 5}
	agg.Add(VoteStats{}) // a no-preprocessing tile
	if agg.WindowCBit != 5 {
		t.Fatalf("zero-value merge clobbered WindowCBit: got %d, want 5", agg.WindowCBit)
	}
	if agg.Series != 3 || agg.Corrected != 2 {
		t.Fatalf("zero-value merge disturbed counters: %+v", agg)
	}
	// A tile that did process series must still win the gauge.
	agg.Add(VoteStats{Series: 1, WindowCBit: 9})
	if agg.WindowCBit != 9 {
		t.Fatalf("real merge did not update WindowCBit: got %d, want 9", agg.WindowCBit)
	}
	if agg.Series != 4 {
		t.Fatalf("Series sum wrong: got %d, want 4", agg.Series)
	}
}
