package core

import (
	"math/bits"

	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// This file is the plane-major (bit-sliced) voter kernel: the same
// Algorithm 1 vote as correctTemporalScratch, restructured so one uint64
// word carries one bit plane of all 64 readouts of a pixel and the
// per-voter AND / leave-one-out algebra runs as whole-word operations.
// The scalar pass in engine.go is the oracle; the differential tests and
// fuzz targets in planes_test.go assert the two are bit-identical.

// grow64 is growU32 for uint64 plane buffers.
func grow64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// planeVote runs one pixel's voter pass over its bit planes: planes[b] is
// bit plane b of the n-readout series (lane i = readout i, bits at or
// above n zero). It fills sc.cplanes with the per-plane candidate
// correction masks, stashes the window masks in sc.planeLSB/planeMSB, and
// returns the OR of all correction planes (bit i set = lane i has a
// nonzero candidate correction). The caller finalizes candidates with
// planeAccept, which applies the carry guard that needs scalar values.
//
// The caller must have validated lambda > 0, 3 <= n <= 64, upsilon >= 2.
func planeVote(sc *VoteScratch, planes []uint64, n, upsilon, lambda, width int, opt voteOptions) uint64 {
	half := upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	phiOf := PruneIndex
	if opt.literalPhi {
		phiOf = PruneIndexLiteral
	}
	// Carve every plane workspace from one backing buffer: the whole
	// kernel costs a single allocation even on a cold scratch.
	need := half*width + (width + 1) + half + width
	sc.plane64 = grow64(sc.plane64, need)
	buf := sc.plane64
	sc.xplanes, buf = buf[:half*width:half*width], buf[half*width:]
	sc.hib, buf = buf[:width+1:width+1], buf[width+1:]
	sc.pms, buf = buf[:half:half], buf[half:]
	sc.cplanes = buf[:width:width]
	sc.vvals = growU32(sc.vvals, half)

	for d := 1; d <= half; d++ {
		// X_d plane b: bit i = bit b of vals[i] XOR vals[i+d], the shared
		// value set of the forward-d and backward-d ways. The planes are
		// formed top down so hib[b] (the OR of planes b and above) builds
		// alongside them.
		x := sc.xplanes[(d-1)*width : d*width]
		way := bitutil.LaneMask(n - d)
		hib := sc.hib
		var above uint64
		hib[width] = 0
		for b := width - 1; b >= 0; b-- {
			p := planes[b]
			xb := (p ^ p>>uint(d)) & way
			x[b] = xb
			above |= xb
			hib[b] = above
		}
		// The way cut-off Vval = CeilPow2(phi-th greatest XOR value) as an
		// order statistic over popcounts: 2^j >= that value iff fewer than
		// phi lanes hold an XOR value > 2^j, so Vval is 2^k for the
		// smallest such k. gt is built incrementally from the suffix OR of
		// the planes above j (any higher bit set => > 2^j) and a running OR
		// of the planes below j (bit j plus any lower bit => > 2^j).
		phi := phiOf(lambda, n-d)
		var lo, pm uint64
		k := width
		for j := 0; j < width; j++ {
			gt := hib[j+1] | x[j]&lo
			if bits.OnesCount64(gt) < phi {
				k, pm = j, gt
				break
			}
			lo |= x[j]
		}
		if k == width {
			// The cut-off needs a power of two above the payload width.
			// For width 32 the scalar CeilPow2 overflows uint32 to 0,
			// un-pruning every nonzero voter; replicate that exactly.
			if width == 32 {
				sc.vvals[d-1] = 0
				pm = hib[0]
			} else {
				sc.vvals[d-1] = 1 << uint(width)
				pm = 0
			}
		} else {
			sc.vvals[d-1] = 1 << uint(k)
		}
		sc.pms[d-1] = pm
	}

	lsbMask, msbMask := windowMasks(sc.vvals[:half], width)
	if opt.staticWindows {
		lsbMask = bitutil.MaskAtOrAbove(opt.staticLSB, width)
		msbMask = bitutil.MaskAtOrAbove(opt.staticMSB, width)
	}
	if opt.disableQuorum {
		msbMask = 0
	}
	sc.planeLSB, sc.planeMSB = lsbMask, msbMask
	if opt.stats != nil {
		opt.stats.Series++
		opt.stats.WindowCBit = width - bitutil.OnesCount32(lsbMask)
	}

	// Eligibility: the scalar pass skips lanes with fewer than two
	// consultable neighbors. Count voter presence with two sequential
	// accumulators (a1 = >=1 voter, a2 = >=2 voters).
	var a1, a2 uint64
	for d := 1; d <= half; d++ {
		pf := bitutil.LaneMask(n - d)
		pb := pf << uint(d)
		a2 |= a1 & pf
		a1 |= pf
		a2 |= a1 & pb
		a1 |= pb
	}
	eligible := a2 & bitutil.LaneMask(n)

	// Vote plane by plane. Lane i's forward-d voter is X_d at lane i, its
	// backward-d voter X_d at lane i-d (the word shifted up by d). A
	// pruned voter keeps voting with value 0 (killing unanimity wherever
	// another voter disagrees), exactly as the scalar pass appends
	// pruned() == 0 entries. Lanes where a voter does not exist are
	// substituted with all-ones so absence never vetoes the AND and never
	// counts toward the leave-one-out zero tally — the word vote then
	// equals the scalar vote over the present voters only.
	var anyC uint64
	for b := 0; b < width; b++ {
		var c uint64
		if lsbMask>>uint(b)&1 == 1 {
			// Fold the 2*half voter words f, k in as they are formed:
			// and is the unanimity vote, and zero1/zero2 mark lanes where
			// at least one/two voters hold a 0, so ^zero2 is the
			// leave-one-out quorum (at least all but one voters agree).
			and, zero1, zero2 := ^uint64(0), uint64(0), uint64(0)
			for d := 1; d <= half; d++ {
				xb := sc.xplanes[(d-1)*width+b] & sc.pms[d-1]
				pf := bitutil.LaneMask(n - d)
				f, k := xb|^pf, xb<<uint(d)|^(pf<<uint(d))
				and &= f & k
				zero2 |= zero1&^f | (zero1|^f)&^k
				zero1 |= ^f | ^k
			}
			c = and
			if msbMask>>uint(b)&1 == 1 {
				c |= ^zero2
			}
			c &= eligible
		}
		sc.cplanes[b] = c
		anyC |= c
	}
	return anyC
}

// planeAccept applies the carry-propagation guard (and correction stats)
// to the candidate correction c at lane i against the scalar series vals,
// returning c if accepted and 0 if vetoed. The guard and its neighbor
// median are the scalar pass's (engine.go); only the candidate discovery
// differs.
func planeAccept(sc *VoteScratch, vals []uint32, i, half int, c uint32, opt voteOptions) uint32 {
	if !opt.disableCarryGuard {
		med := neighborMedianU32(sc, vals, i, half)
		before, after := dist32(vals[i], med), dist32(vals[i]^c, med)
		if after > before || before-after < c/2 {
			if opt.stats != nil {
				opt.stats.GuardRejected++
			}
			return 0
		}
	}
	if opt.stats != nil {
		opt.stats.Corrected++
		opt.stats.BitsWindowA += bitutil.OnesCount32(c & sc.planeMSB)
		opt.stats.BitsWindowB += bitutil.OnesCount32(c & sc.planeLSB &^ sc.planeMSB)
	}
	return c
}

// neighborMedianU32 returns the lower median of the neighbors lane i
// consults, the value medianU32 returns for the scalar pass's neighbor
// list. Lanes with all four neighbors of the default Upsilon = 4 take a
// min/max network in registers instead of building and sorting the list;
// equal uint32 values are identical, so the network needs no tie rule.
func neighborMedianU32(sc *VoteScratch, vals []uint32, i, half int) uint32 {
	n := len(vals)
	if half == 2 && i >= 2 && i+2 < n {
		a, b, c, d := vals[i+1], vals[i-1], vals[i+2], vals[i-2]
		return min(max(min(a, b), min(c, d)), max(a, b), max(c, d))
	}
	neigh := sc.neigh[:0]
	for d := 1; d <= half; d++ {
		if i+d < n {
			neigh = append(neigh, vals[i+d])
		}
		if i-d >= 0 {
			neigh = append(neigh, vals[i-d])
		}
	}
	return medianU32(neigh)
}

// correctTemporalPlanes is the plane-major voter pass over a scalar
// series: it transposes vals into bit planes, votes all lanes at once, and
// finalizes only the (typically rare) candidate lanes. Bit-identical to
// correctTemporalScratch; vals must fit in width bits.
func correctTemporalPlanes(sc *VoteScratch, vals []uint32, upsilon, lambda, width int, opt voteOptions) []uint32 {
	n := len(vals)
	sc.corr = growU32(sc.corr, n)
	corr := sc.corr
	for i := range corr {
		corr[i] = 0
	}
	if lambda <= 0 || n < 3 || upsilon < 2 {
		return corr
	}
	lanes := &sc.lanes64
	for i, v := range vals {
		lanes[i] = uint64(v)
	}
	for i := n; i < 64; i++ {
		lanes[i] = 0
	}
	bitutil.TransposeBlock64x32(lanes, width)
	anyC := planeVote(sc, lanes[:width], n, upsilon, lambda, width, opt)
	if anyC == 0 {
		return corr
	}
	half := upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	if cap(sc.neigh) < upsilon {
		sc.neigh = make([]uint32, 0, upsilon)
	}
	// Scatter the candidate planes into the zeroed corr one set bit at a
	// time (bit b of corr[i] is bit i of cplanes[b]): one step per
	// candidate bit rather than LaneValue's width steps per candidate
	// lane. Lanes at or above n hold no candidates (planeVote masks them
	// out).
	for b, p := range sc.cplanes[:width] {
		for ; p != 0; p &= p - 1 {
			corr[bits.TrailingZeros64(p)] |= 1 << uint(b)
		}
	}
	for m := anyC; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		corr[i] = planeAccept(sc, vals, i, half, corr[i], opt)
	}
	return corr
}

// planeWorthIt reports whether the plane-major kernel beats the scalar
// pass for a series of n values at the given bit width. The plane
// kernel's cost scales with width (every plane word is touched whether
// its lanes vote or not) while the scalar kernel's scales with n, so
// short series lose the transpose bet: measured on the dev machine the
// crossover sits near n = width/2 (n ~ 9 at width 16, n ~ 14 at width
// 32), and below it the scalar pass is up to ~2x faster. The upper
// bound is the 64-lane transpose block.
func planeWorthIt(n, width int) bool {
	return 2*n >= width+4 && n <= 64
}

// correctTemporalAuto dispatches between the plane-major kernel and the
// scalar oracle: the plane path covers every series the block transpose
// holds and the cost model favors (planeWorthIt), scalar covers the
// rest and the explicit scalarOnly escape hatch.
func correctTemporalAuto(sc *VoteScratch, vals []uint32, upsilon, lambda, width int, opt voteOptions, scalarOnly bool) []uint32 {
	if !scalarOnly && planeWorthIt(len(vals), width) {
		return correctTemporalPlanes(sc, vals, upsilon, lambda, width, opt)
	}
	return correctTemporalScratch(sc, vals, upsilon, lambda, width, opt)
}

// ProcessStackPlanes implements SeriesPreprocessor: the voter pass over
// the flattened coordinate range [p0, p1) of s, streamed 64 pixels at a
// time through a scratch-held plane-major window. Candidate corrections
// (the rare case) are finalized against the scalar series read straight
// from the frames; votes are computed against the original planes, so
// corrections do not cascade, and the gathered window is never scattered
// back — corrections XOR directly into the frames. Depths the 64-lane
// transpose cannot hold or the cost model disfavors at the voter's 16-bit
// width (see planeWorthIt), and a ScalarOnly configuration, take the
// per-series scalar pass instead.
func (a *AlgoNGST) ProcessStackPlanes(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	p0, p1 = clampRange(s, p0, p1)
	if a.cfg.Sensitivity == 0 || p0 >= p1 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	n := s.Len()
	if a.cfg.ScalarOnly || !planeWorthIt(n, 16) {
		a.processRangeScalar(s, p0, p1, sc, stats)
		return
	}
	const block = 64
	if sc.ps == nil || sc.ps.Depth != n {
		ps, err := dataset.NewPlaneStack(n, 16, block)
		if err != nil {
			a.processRangeScalar(s, p0, p1, sc, stats)
			return
		}
		sc.ps = ps
	}
	ps := sc.ps
	half := a.cfg.Upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	if cap(sc.neigh) < a.cfg.Upsilon {
		sc.neigh = make([]uint32, 0, a.cfg.Upsilon)
	}
	for base := p0; base < p1; base += block {
		cnt := min(p1-base, block)
		ps.Gather(s, base, cnt)
		for i := 0; i < cnt; i++ {
			collect := stats
			if a.tel != nil || a.log != nil {
				sc.stats = VoteStats{}
				collect = &sc.stats
			}
			opt := a.cfg.voteOptions(collect)
			anyC := planeVote(sc, ps.Planes(i), n, a.cfg.Upsilon, a.cfg.Sensitivity, 16, opt)
			if anyC != 0 {
				p := base + i
				sc.vals = growU32(sc.vals, n)
				vals := sc.vals
				for t, f := range s.Frames {
					vals[t] = uint32(f.Pix[p])
				}
				for m := anyC; m != 0; m &= m - 1 {
					t := bits.TrailingZeros64(m)
					c := bitutil.LaneValue(sc.cplanes[:16], t)
					if c = planeAccept(sc, vals, t, half, c, opt); c != 0 {
						s.Frames[t].Pix[p] ^= uint16(c)
					}
				}
			}
			if collect == &sc.stats {
				a.finishSeries(sc.stats, stats)
			}
		}
	}
}

// processRangeScalar runs the per-series scalar pass over the flattened
// coordinate range [p0, p1) of s: the ScalarOnly oracle, and the path for
// depths the plane kernel does not serve.
func (a *AlgoNGST) processRangeScalar(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	w := s.Width()
	for i := p0; i < p1; i++ {
		x, y := i%w, i/w
		sc.rser = s.SeriesAtBuf(x, y, sc.rser)
		a.ProcessSeriesScratch(sc.rser, sc, stats)
		s.SetSeriesAt(x, y, sc.rser)
	}
}

// finishSeries fans one series' staged counters out to the registry
// counters, the forensics logger, and the caller's collector (the tail of
// ProcessSeriesScratch, shared with the stack plane path).
func (a *AlgoNGST) finishSeries(local VoteStats, stats *VoteStats) {
	if a.tel != nil {
		a.tel.add(local)
	}
	if a.log != nil && local.Corrected > 0 {
		a.logSeriesCorrected(local)
	}
	if stats != nil {
		stats.Add(local)
	}
}

// voteOptions lowers the configuration's ablation switches into the
// engine's option struct with the given stats collector.
func (c NGSTConfig) voteOptions(stats *VoteStats) voteOptions {
	return voteOptions{
		disableQuorum:     c.DisableQuorum,
		disableCarryGuard: c.DisableCarryGuard,
		literalPhi:        c.LiteralPhi,
		staticWindows:     c.StaticWindows,
		staticLSB:         c.StaticLSB,
		staticMSB:         c.StaticMSB,
		stats:             stats,
	}
}
