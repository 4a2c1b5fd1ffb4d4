package core

import (
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
)

// planeOptVariants enumerates the ablation-switch combinations the
// differential tests sweep (stats are attached by the caller).
func planeOptVariants() []voteOptions {
	return []voteOptions{
		{},
		{disableQuorum: true},
		{disableCarryGuard: true},
		{literalPhi: true},
		{staticWindows: true, staticLSB: 2, staticMSB: 9},
		{disableQuorum: true, disableCarryGuard: true, literalPhi: true},
	}
}

// diffTemporal runs the scalar oracle and the plane kernel over the same
// series and fails on any divergence in corrections or stats.
func diffTemporal(t *testing.T, vals []uint32, upsilon, lambda, width int, opt voteOptions) {
	t.Helper()
	var scS, scP VoteScratch
	var stS, stP VoteStats
	optS, optP := opt, opt
	optS.stats, optP.stats = &stS, &stP
	corrS := correctTemporalScratch(&scS, vals, upsilon, lambda, width, optS)
	corrP := correctTemporalPlanes(&scP, vals, upsilon, lambda, width, optP)
	if len(corrS) != len(corrP) {
		t.Fatalf("corr length: scalar %d plane %d", len(corrS), len(corrP))
	}
	for i := range corrS {
		if corrS[i] != corrP[i] {
			t.Fatalf("n=%d upsilon=%d lambda=%d width=%d opt=%+v: corr[%d] scalar %08x plane %08x\nvals=%08x",
				len(vals), upsilon, lambda, width, opt, i, corrS[i], corrP[i], vals)
		}
	}
	if stS != stP {
		t.Fatalf("n=%d upsilon=%d lambda=%d width=%d opt=%+v: stats scalar %+v plane %+v",
			len(vals), upsilon, lambda, width, opt, stS, stP)
	}
}

// TestCorrectTemporalPlanesMatchesScalar is the temporal differential
// gate: across random geometries, window lengths, sensitivities, ablation
// switches and fault masks, the plane-major kernel must be bit-identical
// to the scalar oracle — corrections and stats both.
func TestCorrectTemporalPlanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(62)
		width := 16
		if trial%3 == 0 {
			width = 32
		}
		vals := make([]uint32, n)
		base := rng.Uint32() & (1<<uint(width) - 1)
		for i := range vals {
			vals[i] = (base + uint32(rng.Intn(400))) & (1<<uint(width) - 1)
		}
		// Fault injection: single flips, bursts, and full-word garbage.
		for i := range vals {
			switch {
			case rng.Float64() < 0.08:
				vals[i] ^= 1 << uint(rng.Intn(width))
			case rng.Float64() < 0.02:
				vals[i] = rng.Uint32() & (1<<uint(width) - 1)
			}
		}
		upsilon := 2 * (1 + rng.Intn(5))
		lambda := rng.Intn(101)
		opt := planeOptVariants()[rng.Intn(len(planeOptVariants()))]
		diffTemporal(t, vals, upsilon, lambda, width, opt)
	}
}

// TestCorrectTemporalPlanesEdgeCases pins the boundary geometries where
// the lane algebra degenerates: minimum length, upsilon exceeding the
// series, constant and all-zero series, full 64-lane blocks, saturated
// 32-bit payloads (where the scalar CeilPow2 overflows).
func TestCorrectTemporalPlanesEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		vals    []uint32
		upsilon int
		lambda  int
		width   int
	}{
		{"min-length", []uint32{1, 70000 & 0xFFFF, 3}, 4, 80, 16},
		{"upsilon-exceeds", []uint32{5, 6, 7, 8}, 16, 80, 16},
		{"constant", []uint32{42, 42, 42, 42, 42, 42}, 4, 100, 16},
		{"all-zero", make([]uint32, 10), 4, 80, 16},
		{"lambda-zero", []uint32{1, 2, 3, 4}, 4, 0, 16},
		{"saturated-32", []uint32{0xFFFFFFFF, 0xFFFFFFF0, 0xFFFFFFFF, 0x0000000F, 0xFFFFFFFF}, 4, 100, 32},
		{"high-bit-32", []uint32{0x80000001, 0x80000002, 0x7FFFFFFF, 0x80000003, 0x80000001}, 6, 90, 32},
	}
	full := make([]uint32, 64)
	for i := range full {
		full[i] = uint32(20000 + (i%7)*13)
	}
	full[9] ^= 1 << 14
	full[40] ^= 1 << 15
	cases = append(cases, struct {
		name    string
		vals    []uint32
		upsilon int
		lambda  int
		width   int
	}{"full-block", full, 4, 80, 16})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, opt := range planeOptVariants() {
				if opt.staticWindows && c.width == 32 {
					continue
				}
				diffTemporal(t, c.vals, c.upsilon, c.lambda, c.width, opt)
			}
		})
	}
}

// damagedStack synthesizes a stack of smooth temporal series with
// rng-driven flips — the workload of the stack differential tests.
func damagedStack(rng *rand.Rand, depth, w, h int) *dataset.Stack {
	s := dataset.NewStack(depth, w, h)
	for p := 0; p < w*h; p++ {
		base := 15000 + rng.Intn(30000)
		for t := 0; t < depth; t++ {
			v := uint16(base + rng.Intn(300) - 150)
			if rng.Float64() < 0.03 {
				v ^= 1 << uint(rng.Intn(16))
			}
			s.Frames[t].Pix[p] = v
		}
	}
	return s
}

func stacksEqual(t *testing.T, name string, a, b *dataset.Stack) {
	t.Helper()
	for fi := range a.Frames {
		for i, v := range a.Frames[fi].Pix {
			if b.Frames[fi].Pix[i] != v {
				t.Fatalf("%s: frame %d pixel %d: scalar %04x plane %04x", name, fi, i, v, b.Frames[fi].Pix[i])
			}
		}
	}
}

// TestProcessStackPlanesMatchesScalar runs every series algorithm's stack
// path against the per-series scalar oracle on the same fault-injected
// stacks.
func TestProcessStackPlanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	ngst, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	ngstScalar, err := NewAlgoNGST(NGSTConfig{Upsilon: 4, Sensitivity: 80, ScalarOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, geom := range []struct{ depth, w, h int }{
		{64, 16, 16}, {64, 13, 5}, {3, 7, 7}, {17, 9, 3}, {4, 1, 1},
	} {
		src := damagedStack(rng, geom.depth, geom.w, geom.h)

		// AlgoNGST: plane stack path vs the ScalarOnly per-series loop.
		wantS, gotS := src.Clone(), src.Clone()
		var wantStats, gotStats VoteStats
		ngstScalar.ProcessStackPlanes(wantS, 0, geom.w*geom.h, NewVoteScratch(), &wantStats)
		ngst.ProcessStackPlanes(gotS, 0, geom.w*geom.h, NewVoteScratch(), &gotStats)
		stacksEqual(t, ngst.Name(), wantS, gotS)
		if wantStats != gotStats {
			t.Fatalf("%s geom %+v: stats scalar %+v plane %+v", ngst.Name(), geom, wantStats, gotStats)
		}

		// Generic filters: frame-major stack path vs per-series pass.
		for _, pre := range []SeriesPreprocessor{Median3{}, MajorityBit3{}} {
			want, got := src.Clone(), src.Clone()
			perSeries(pre, want)
			pre.ProcessStackPlanes(got, 0, geom.w*geom.h, NewVoteScratch(), nil)
			stacksEqual(t, pre.Name(), want, got)
		}
	}
}

// TestProcessStackPlanesRange checks that a range-restricted plane pass
// touches exactly [p0, p1): pixels outside must be byte-identical to the
// input, pixels inside identical to a full-range pass.
func TestProcessStackPlanesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	ngst, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pre := range []SeriesPreprocessor{ngst, Median3{}, MajorityBit3{}} {
		src := damagedStack(rng, 32, 12, 9)
		full := src.Clone()
		pre.ProcessStackPlanes(full, 0, 108, nil, nil)
		part := src.Clone()
		p0, p1 := 23, 77
		pre.ProcessStackPlanes(part, p0, p1, nil, nil)
		for fi := range src.Frames {
			for i := range src.Frames[fi].Pix {
				want := src.Frames[fi].Pix[i]
				if i >= p0 && i < p1 {
					want = full.Frames[fi].Pix[i]
				}
				if part.Frames[fi].Pix[i] != want {
					t.Fatalf("%s frame %d pixel %d: got %04x want %04x", pre.Name(), fi, i, part.Frames[fi].Pix[i], want)
				}
			}
		}
	}
}

// TestProcessStackPlanesZeroAlloc extends the PR-3 zero-allocation gate to
// the plane-major stack path: once the scratch is warm, a full stack pass
// must not touch the heap.
func TestProcessStackPlanesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ngst, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pre := range []SeriesPreprocessor{ngst, Median3{}, MajorityBit3{}} {
		src := damagedStack(rng, 64, 16, 8)
		work := src.Clone()
		sc := NewVoteScratch()
		var stats VoteStats
		pre.ProcessStackPlanes(work, 0, 128, sc, &stats)
		allocs := testing.AllocsPerRun(10, func() {
			for fi := range work.Frames {
				copy(work.Frames[fi].Pix, src.Frames[fi].Pix)
			}
			pre.ProcessStackPlanes(work, 0, 128, sc, &stats)
		})
		if allocs != 0 {
			t.Fatalf("%s: ProcessStackPlanes allocates %.1f objects per pass with a warm scratch, want 0",
				pre.Name(), allocs)
		}
	}
}

// FuzzPlaneTemporal is the go test -fuzz differential target: arbitrary
// byte-derived series, window lengths, sensitivities and ablation flags
// must never separate the plane kernel from the scalar oracle.
func FuzzPlaneTemporal(f *testing.F) {
	// Seed corpus: smooth series, fault-injected series, bursts, constant
	// and saturated payloads, both widths.
	f.Add([]byte{0x10, 0x27, 0x11, 0x27, 0x12, 0x27, 0x13, 0x27, 0x14, 0x27, 0x15, 0x27}, uint8(1), uint8(80), uint8(0))
	f.Add([]byte{0x10, 0x27, 0x11, 0xA7, 0x12, 0x27, 0x13, 0x27, 0x14, 0x27, 0x15, 0x27}, uint8(1), uint8(80), uint8(0)) // bit 15 flip
	f.Add([]byte{0xFF, 0xFF, 0xFE, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF}, uint8(2), uint8(100), uint8(1))            // saturated, width 32
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(50), uint8(2))
	f.Add([]byte{0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA}, uint8(3), uint8(99), uint8(14))
	f.Fuzz(func(t *testing.T, data []byte, upsilonRaw, lambdaRaw, flags uint8) {
		width := 16
		if flags&1 != 0 {
			width = 32
		}
		elem := width / 8
		n := len(data) / elem
		if n > 64 {
			n = 64
		}
		if n < 3 {
			return
		}
		vals := make([]uint32, n)
		for i := range vals {
			for b := 0; b < elem; b++ {
				vals[i] |= uint32(data[i*elem+b]) << uint(8*b)
			}
		}
		upsilon := 2 + 2*int(upsilonRaw%8)
		lambda := int(lambdaRaw % 101)
		opt := voteOptions{
			disableQuorum:     flags&2 != 0,
			disableCarryGuard: flags&4 != 0,
			literalPhi:        flags&8 != 0,
		}
		if flags&16 != 0 && width == 16 {
			opt.staticWindows = true
			opt.staticLSB = int(flags>>5) & 7
			opt.staticMSB = opt.staticLSB + int(flags>>6)&3
		}
		diffTemporal(t, vals, upsilon, lambda, width, opt)
	})
}

// FuzzPlaneStack fuzzes the stack-level plane paths of all three series
// algorithms against their scalar oracles on byte-derived geometries.
func FuzzPlaneStack(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(3), int64(1))
	f.Add(uint8(64), uint8(2), uint8(2), int64(2))
	f.Add(uint8(3), uint8(9), uint8(1), int64(3))
	f.Add(uint8(33), uint8(5), uint8(4), int64(-77))
	f.Fuzz(func(t *testing.T, depthRaw, wRaw, hRaw uint8, seed int64) {
		depth := 3 + int(depthRaw)%62
		w := 1 + int(wRaw)%12
		h := 1 + int(hRaw)%8
		rng := rand.New(rand.NewSource(seed))
		src := damagedStack(rng, depth, w, h)
		ngst, err := NewAlgoNGST(NGSTConfig{Upsilon: 2 + 2*rng.Intn(4), Sensitivity: 1 + rng.Intn(100)})
		if err != nil {
			t.Fatal(err)
		}
		for _, pre := range []SeriesPreprocessor{ngst, Median3{}, MajorityBit3{}} {
			want, got := src.Clone(), src.Clone()
			scalarOracle(pre, want)
			pre.ProcessStackPlanes(got, 0, w*h, NewVoteScratch(), nil)
			stacksEqual(t, pre.Name(), want, got)
		}
	})
}

// scalarOracle runs the scalar-path twin of p over the whole stack: for
// AlgoNGST a ScalarOnly copy (its stack pass is then the per-series scalar
// loop), for the generic filters their own per-series pass.
func scalarOracle(p SeriesPreprocessor, s *dataset.Stack) {
	if a, ok := p.(*AlgoNGST); ok {
		cfg := a.Config()
		cfg.ScalarOnly = true
		o, err := NewAlgoNGST(cfg)
		if err != nil {
			panic(err)
		}
		o.ProcessStackPlanes(s, 0, s.Width()*s.Height(), NewVoteScratch(), nil)
		return
	}
	perSeries(p, s)
}

// perSeries runs p's ProcessSeries over every coordinate of s.
func perSeries(p SeriesPreprocessor, s *dataset.Stack) {
	var ser dataset.Series
	for y := 0; y < s.Height(); y++ {
		for x := 0; x < s.Width(); x++ {
			ser = s.SeriesAtBuf(x, y, ser)
			p.ProcessSeries(ser)
			s.SetSeriesAt(x, y, ser)
		}
	}
}
