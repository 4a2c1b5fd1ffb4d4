package core

import (
	"testing"
	"testing/quick"

	"spaceproc/internal/dataset"
	"spaceproc/internal/rng"
)

// randomSeries draws an arbitrary 64-element series from a quick-check
// seed, mixing smooth structure with raw noise so the properties are
// exercised across regimes.
func randomSeries(seed uint64) dataset.Series {
	src := rng.New(seed)
	s := make(dataset.Series, 64)
	base := uint16(src.Uint32())
	sigma := float64(src.Intn(2000))
	cur := float64(base)
	for i := range s {
		cur += src.Normal(0, sigma)
		if cur < 0 {
			cur = 0
		}
		if cur > 0xFFFF {
			cur = 0xFFFF
		}
		s[i] = uint16(cur)
		if src.Bernoulli(0.05) {
			s[i] ^= uint16(src.Uint32()) // occasional arbitrary damage
		}
	}
	return s
}

// TestPropertyCorrectionsRespectWindowC: the voter never touches bits the
// dynamic analysis declared window C, for any input whatsoever.
func TestPropertyCorrectionsRespectWindowC(t *testing.T) {
	f := func(seed uint64, lambdaRaw uint8) bool {
		lambda := int(lambdaRaw)%100 + 1
		s := randomSeries(seed)
		vals := make([]uint32, len(s))
		for i, v := range s {
			vals[i] = uint32(v)
		}
		// Recompute the masks exactly as the engine does.
		xors1 := make([]uint32, len(vals)-1)
		for i := range xors1 {
			xors1[i] = vals[i] ^ vals[i+1]
		}
		xors2 := make([]uint32, len(vals)-2)
		for i := range xors2 {
			xors2[i] = vals[i] ^ vals[i+2]
		}
		vv := []uint32{wayThreshold(xors1, lambda, PruneIndex), wayThreshold(xors2, lambda, PruneIndex)}
		lsbMask, _ := windowMasks(vv, 16)

		corr := correctTemporal(vals, 4, lambda, 16)
		for _, c := range corr {
			if c&^lsbMask != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyProcessingDeterministic: same input, same output, always.
func TestPropertyProcessingDeterministic(t *testing.T) {
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		s := randomSeries(seed)
		s1, s2 := s.Clone(), s.Clone()
		a.ProcessSeries(s1)
		a.ProcessSeries(s2)
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNeverPanicsOnArbitraryInput: the full algorithm grid is
// panic-free over arbitrary series lengths and contents.
func TestPropertyNeverPanicsOnArbitraryInput(t *testing.T) {
	f := func(raw []uint16, upsRaw, lambdaRaw uint8) bool {
		upsilon := (int(upsRaw)%4 + 1) * 2
		lambda := int(lambdaRaw) % 101
		a, err := NewAlgoNGST(NGSTConfig{Upsilon: upsilon, Sensitivity: lambda})
		if err != nil {
			return false
		}
		s := dataset.Series(raw)
		a.ProcessSeries(s) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGuardOnlyRemovesCorrections: with the carry guard disabled
// the correction set can only grow (the guard is a pure filter).
func TestPropertyGuardOnlyRemovesCorrections(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSeries(seed)
		vals := make([]uint32, len(s))
		for i, v := range s {
			vals[i] = uint32(v)
		}
		with := correctTemporalOpt(vals, 4, 80, 16, voteOptions{})
		without := correctTemporalOpt(vals, 4, 80, 16, voteOptions{disableCarryGuard: true})
		for i := range with {
			// Every correction surviving the guard must be exactly what
			// the unguarded pass proposed there.
			if with[i] != 0 && with[i] != without[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMajorityPreservesUnanimousBits: Algorithm 3 never flips a
// bit on which the whole window agrees.
func TestPropertyMajorityPreservesUnanimousBits(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 3 {
			return true
		}
		s := dataset.Series(raw).Clone()
		orig := s.Clone()
		MajorityBit3{}.ProcessSeries(s)
		for i := 1; i < len(s)-1; i++ {
			agree := ^(orig[i-1] ^ orig[i]) & ^(orig[i] ^ orig[i+1])
			if (s[i]^orig[i])&agree != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMedianOutputWithinWindowRange: every median output lies
// within the min/max of its input window, so Algorithm 2 can never invent
// values outside the local range.
func TestPropertyMedianOutputWithinWindowRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 3 {
			return true
		}
		orig := dataset.Series(raw).Clone()
		s := orig.Clone()
		Median3{}.ProcessSeries(s)
		lo, hi := orig[0], orig[0]
		for _, v := range orig {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, v := range s {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCorrectionWeightBounded: the carry guard guarantees every
// applied correction moved the pixel toward its neighborhood median by at
// least half the correction's binary weight.
func TestPropertyCorrectionWeightBounded(t *testing.T) {
	f := func(seed uint64) bool {
		s := randomSeries(seed)
		vals := make([]uint32, len(s))
		for i, v := range s {
			vals[i] = uint32(v)
		}
		corr := correctTemporal(vals, 4, 100, 16)
		for i, c := range corr {
			if c == 0 {
				continue
			}
			neigh := make([]uint32, 0, 4)
			for _, d := range []int{-2, -1, 1, 2} {
				if j := i + d; j >= 0 && j < len(vals) {
					neigh = append(neigh, vals[j])
				}
			}
			med := medianU32(neigh)
			before, after := dist32(vals[i], med), dist32(vals[i]^c, med)
			if after > before || before-after < c/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
