package core

import (
	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// MajorityBit3 is the paper's Algorithm 3: sliding-window bitwise majority
// voting with a window of three pixels. Where median smoothing discards a
// deviant pixel's entire 16-bit representation, bit voting salvages the 15
// uncorrupted bits of a single-flip pixel by voting each bit plane
// independently against the same bit of the two temporal neighbors.
//
// Boundary handling follows the printed pseudocode's reflection
// (P(0) = P(3), P(N+1) = P(N-2), 1-indexed). Votes are computed against the
// original input (a sequential in-place pass would feed already-voted
// values into later windows, which the all-at-once matrix formulation of
// the pseudocode does not do).
type MajorityBit3 struct{}

var _ SeriesPreprocessor = MajorityBit3{}

// Name implements SeriesPreprocessor.
func (MajorityBit3) Name() string { return "MajorityBitVote3" }

// ProcessSeries implements SeriesPreprocessor. It snapshots the series
// into a fresh buffer; hot loops should hold a VoteScratch and call
// ProcessSeriesScratch, which reuses the snapshot buffer across series.
func (m MajorityBit3) ProcessSeries(s dataset.Series) {
	m.ProcessSeriesScratch(s, nil, nil)
}

// ProcessSeriesScratch is ProcessSeries with the vote-against-original
// snapshot held in the scratch, so a warm scratch makes the pass
// allocation-free. stats is ignored (the generic baselines do not collect
// correction telemetry).
func (MajorityBit3) ProcessSeriesScratch(s dataset.Series, sc *VoteScratch, _ *VoteStats) {
	n := len(s)
	if n < 3 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	if cap(sc.ser16) < n {
		sc.ser16 = make(dataset.Series, n)
	}
	orig := sc.ser16[:n]
	copy(orig, s)
	at := func(i int) uint16 {
		switch {
		case i < 0:
			return orig[2] // P(0) = P(3) in the paper's 1-indexing
		case i >= n:
			return orig[n-3] // P(N+1) = P(N-2)
		default:
			return orig[i]
		}
	}
	for i := 0; i < n; i++ {
		s[i] = bitutil.MajorityVote3(at(i-1), at(i), at(i+1))
	}
}

// majChunk is the pixel width of MajorityBit3's frame-major stack sweep:
// three rotating original-value buffers of this size replace the
// per-pixel series snapshot. 4096 pixels keeps the working set (3 x 8 KB)
// inside L1/L2 while amortizing the frame-pointer chasing.
const majChunk = 4096

// ProcessStackPlanes implements SeriesPreprocessor: the vote-against-
// original majority sweep in frame-major order (the layout win described
// on Median3.ProcessStackPlanes). Because frame t's output consults the
// ORIGINAL frames t-1 and (at the reflected tail) n-3, three rotating
// chunk buffers carry the original values of frames t-2, t-1 and t; raw
// frames t+1 (and frame 2 at the head) are read live, before the sweep
// reaches them. Bit-identical to the per-series snapshot pass; it
// collects no stats.
func (MajorityBit3) ProcessStackPlanes(s *dataset.Stack, p0, p1 int, sc *VoteScratch, _ *VoteStats) {
	n := s.Len()
	p0, p1 = clampRange(s, p0, p1)
	if n < 3 || p0 >= p1 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	if cap(sc.majA) < majChunk {
		sc.majA = make(dataset.Series, majChunk)
		sc.majB = make(dataset.Series, majChunk)
		sc.majC = make(dataset.Series, majChunk)
	}
	for base := p0; base < p1; base += majChunk {
		cnt := min(p1-base, majChunk)
		prev2, prev1, cur := sc.majA[:cnt], sc.majB[:cnt], sc.majC[:cnt]
		for t := 0; t < n; t++ {
			out := s.Frames[t].Pix[base : base+cnt]
			copy(cur, out)
			left := prev1 // original frame t-1
			if t == 0 {
				left = s.Frames[2].Pix[base : base+cnt] // P(0) = P(3), still raw
			}
			right := prev2 // original frame n-3 at the tail
			if t < n-1 {
				right = s.Frames[t+1].Pix[base : base+cnt] // raw, not yet voted
			}
			for i := 0; i < cnt; i++ {
				out[i] = bitutil.MajorityVote3(left[i], cur[i], right[i])
			}
			prev2, prev1, cur = prev1, cur, prev2
		}
	}
}
