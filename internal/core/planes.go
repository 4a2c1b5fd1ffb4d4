package core

import (
	"math/bits"

	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// This file is the plane-major (bit-sliced) voter kernel: the same
// Algorithm 1 vote as correctTemporalScratch, restructured so one uint64
// word carries one bit plane of a block of readouts and the per-voter AND
// / leave-one-out algebra runs as whole-word operations. Readouts sit in
// the lanes at a stride s of 16, 32 or 64: lane g*s+i holds readout i of
// the block's g-th series, so one word votes 64/s series at once (four
// pixels of a 16-readout stack, two of a 32-readout one, one pixel of a
// deeper stack or one scalar series). The scalar pass in engine.go is the
// oracle; the differential tests and fuzz targets in planes_test.go and
// the digest in ngst_golden_test.go assert the two are bit-identical.

// grow64 is growU32 for uint64 plane buffers.
func grow64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// planeGeom holds the plane kernel's per-geometry constants, derived from
// the series length, Upsilon, Lambda, the phi formula, the lane stride and
// the payload width. planeSetup computes them once per geometry and
// caches them in the VoteScratch.
type planeGeom struct {
	n, upsilon, lambda, stride, width int
	literalPhi                        bool
	// half is the number of voter ways, Upsilon/2 clamped to n-1.
	half int
	// rep1 has bit 0 of every stride-wide group field set. A word of one
	// bit per group at the group's bit 0, times groupLanes (the low
	// stride lanes), spreads each bit over its group's lanes; times a
	// value below 2^stride, it places that value in each flagged field.
	rep1, groupLanes uint64
	// eligible selects, in every group, the lanes with at least two
	// consultable neighbors (the scalar pass skips the rest).
	eligible uint64
	// ways[d-1] selects lanes [0, n-d) of every group: the lanes holding
	// the forward-d XOR value, the way's value set.
	ways []uint64
	// phis[d-1] is the way's prune index phi. Below stride 64 it is the
	// minuend of the group scan's SWAR compare instead: phi-1 in every
	// group field, with the field's top bit set.
	phis []uint64
}

// planeSetup makes sc.geom describe the given geometry, recomputing the
// constants only when it changed, and carves the plane workspaces
// (xplanes, hib, pms, cplanes) from one backing buffer, so the kernel
// costs a single allocation even on a cold scratch. Strides below 64 take
// widths up to 16, the stack path's pixel width.
func (sc *VoteScratch) planeSetup(n, upsilon, lambda, stride, width int, literalPhi bool) {
	g := &sc.geom
	if g.n == n && g.upsilon == upsilon && g.lambda == lambda && g.stride == stride &&
		g.width == width && g.literalPhi == literalPhi {
		return
	}
	half := min(upsilon/2, n-1)
	*g = planeGeom{
		n: n, upsilon: upsilon, lambda: lambda, stride: stride, width: width,
		literalPhi: literalPhi, half: half,
		groupLanes: bitutil.LaneMask(stride),
		ways:       grow64(g.ways, half),
		phis:       grow64(g.phis, half),
	}
	for l := 0; l < 64; l += stride {
		g.rep1 |= 1 << uint(l)
	}
	phiOf := PruneIndex
	if literalPhi {
		phiOf = PruneIndexLiteral
	}
	// Eligibility counts voter presence with two sequential accumulators
	// (a1 = >=1 voter, a2 = >=2 voters).
	var a1, a2 uint64
	for d := 1; d <= half; d++ {
		pf := bitutil.LaneMask(n-d) * g.rep1
		pb := pf << uint(d)
		g.ways[d-1] = pf
		a2 |= a1 & pf
		a1 |= pf
		a2 |= a1 & pb
		a1 |= pb
		phi := uint64(phiOf(lambda, n-d))
		if stride < 64 {
			phi = (phi-1)*g.rep1 | g.rep1<<uint(stride-1)
		}
		g.phis[d-1] = phi
	}
	g.eligible = a2 & (bitutil.LaneMask(n) * g.rep1)

	need := half*width + (width + 1) + half + width
	sc.plane64 = grow64(sc.plane64, need)
	buf := sc.plane64
	sc.xplanes, buf = buf[:half*width:half*width], buf[half*width:]
	sc.hib, buf = buf[:width+1:width+1], buf[width+1:]
	sc.pms, buf = buf[:half:half], buf[half:]
	sc.cplanes = buf[:width:width]
}

// planeVote runs the voter pass over one block in the geometry planeSetup
// last set: planes[b] is bit plane b of the block, whose first groups
// series sit at the lane stride (lanes of readouts at or above n, and of
// groups past the last, zero). It fills sc.cplanes with the per-plane
// candidate correction lanes, stashes the packed window masks in
// sc.planeLSB/planeMSB (group g's width-bit masks at bit g*stride; see
// groupWindows), and returns the OR of all candidate planes. The caller
// finalizes candidates with planeAccept, which applies the carry guard
// that needs scalar values.
//
// planeSetup's geometry must satisfy lambda > 0, 3 <= n <= stride and
// upsilon >= 2.
func planeVote(sc *VoteScratch, planes []uint64, groups int, opt voteOptions) uint64 {
	g := &sc.geom
	width, stride, half := g.width, g.stride, g.half
	// lw and mw collect the packed window masks: each way's cut-off plane
	// k opens its group's window at bits >= k, window C's boundary is the
	// smallest cut-off (the OR over ways) and window A's the largest (the
	// AND). The masks are nested, so OR and AND are the scalar pass's
	// min and max over the cut-offs.
	lw, mw := uint64(0), ^uint64(0)
	for d := 1; d <= half; d++ {
		// X_d plane b: bit i = bit b of vals[i] XOR vals[i+d], the shared
		// value set of the forward-d and backward-d ways. The shift pulls
		// the next group's low lanes into a group's top d lanes, which the
		// way mask clears. The planes are formed top down so hib[b] (the
		// OR of planes b and above) builds alongside them.
		x := sc.xplanes[(d-1)*width : d*width]
		way := g.ways[d-1]
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
		var pm, win uint64
		if stride == 64 {
			pm, win = wayCut(x, hib, int(g.phis[d-1]), width)
		} else {
			pm, win = wayCutGroups(x, hib, g, g.phis[d-1])
		}
		sc.pms[d-1] = pm
		lw |= win
		mw &= win
	}
	if opt.staticWindows {
		lw = uint64(bitutil.MaskAtOrAbove(opt.staticLSB, width)) * g.rep1
		mw = uint64(bitutil.MaskAtOrAbove(opt.staticMSB, width)) * g.rep1
	}
	if opt.disableQuorum {
		mw = 0
	}
	sc.planeLSB, sc.planeMSB = lw, mw
	if opt.stats != nil {
		last, _ := sc.groupWindows(groups - 1)
		opt.stats.Series += groups
		opt.stats.WindowCBit = width - bits.OnesCount32(last)
	}

	// Vote plane by plane. Lane i's forward-d voter is X_d at lane i, its
	// backward-d voter X_d at lane i-d (the word shifted up by d, which
	// stays inside the group because n <= stride). A pruned voter keeps
	// voting with value 0 (killing unanimity wherever another voter
	// disagrees), exactly as the scalar pass appends pruned() == 0
	// entries. Lanes where a voter does not exist are substituted with
	// all-ones so absence never vetoes the AND and never counts toward the
	// leave-one-out zero tally — the word vote then equals the scalar vote
	// over the present voters only. Each plane's window lanes come from
	// the packed masks: bit b of every group's mask, spread over its
	// group.
	eligible := g.eligible & bitutil.LaneMask(groups*stride)
	var anyC uint64
	for b := 0; b < width; b++ {
		var c uint64
		if lsb := (lw >> uint(b) & g.rep1) * g.groupLanes; lsb != 0 {
			// Fold the 2*half voter words f, k in as they are formed:
			// and is the unanimity vote, and zero1/zero2 mark lanes where
			// at least one/two voters hold a 0, so ^zero2 is the
			// leave-one-out quorum (at least all but one voters agree).
			and, zero1, zero2 := ^uint64(0), uint64(0), uint64(0)
			for d := 1; d <= half; d++ {
				xb := sc.xplanes[(d-1)*width+b] & sc.pms[d-1]
				pf := g.ways[d-1]
				f, k := xb|^pf, xb<<uint(d)|^(pf<<uint(d))
				and &= f & k
				zero2 |= zero1&^f | (zero1|^f)&^k
				zero1 |= ^f | ^k
			}
			msb := (mw >> uint(b) & g.rep1) * g.groupLanes
			c = (and | ^zero2&msb) & eligible & lsb
		}
		sc.cplanes[b] = c
		anyC |= c
	}
	return anyC
}

// wayCut finds one way's cut-off in a single-series block (stride 64):
// Vval = CeilPow2(phi-th greatest XOR value) as an order statistic over
// popcounts. 2^j >= that value iff fewer than phi lanes hold an XOR value
// > 2^j, so Vval is 2^k for the smallest such k. gt is built
// incrementally from the suffix OR of the planes above j (any higher bit
// set => > 2^j) and a running OR of the planes below j (bit j plus any
// lower bit => > 2^j). It returns the keep-mask of unpruned voters (the
// lanes > Vval) and the window mask of bits >= k.
func wayCut(x, hib []uint64, phi, width int) (pm, win uint64) {
	var lo uint64
	for j := 0; j < width; j++ {
		gt := hib[j+1] | x[j]&lo
		if bits.OnesCount64(gt) < phi {
			return gt, uint64(bitutil.MaskAtOrAbove(j, width))
		}
		lo |= x[j]
	}
	// The cut-off needs a power of two above the payload width. For width
	// 32 the scalar CeilPow2 overflows uint32 to 0, un-pruning every
	// nonzero voter and opening the whole window (BitIndex(0) is -1);
	// replicate that exactly. Below it the cut-off prunes every voter and
	// closes the window.
	if width == 32 {
		return hib[0], uint64(bitutil.MaskAtOrAbove(0, width))
	}
	return 0, 0
}

// wayCutGroups is wayCut for a block of several series (stride 16 or 32):
// each group counts its lanes > 2^j with a SWAR popcount and compares the
// count with phi in the same word (phiHi holds phi-1 in every field under
// the field's top bit, which survives the subtraction exactly when the
// count is below phi). A group settles at the first such j, recording its
// keep-mask lanes and window field; the scan stops once every group has
// settled. A group that never settles keeps an empty window and prunes
// every voter, the cut-off above the (at most 16-bit) payload.
func wayCutGroups(x, hib []uint64, g *planeGeom, phiHi uint64) (pm, win uint64) {
	stride, width := g.stride, g.width
	var lo, settled uint64
	for j := 0; j < width; j++ {
		gt := hib[j+1] | x[j]&lo
		now := (phiHi - bitutil.GroupCounts(gt, stride)) >> uint(stride-1) & g.rep1 &^ settled
		if now != 0 {
			pm |= gt & (now * g.groupLanes)
			win |= now * uint64(bitutil.MaskAtOrAbove(j, width))
			settled |= now
			if settled == g.rep1 {
				break
			}
		}
		lo |= x[j]
	}
	return pm, win
}

// groupWindows unpacks group g's window masks (lsb: bits outside window
// C; msb: window A) from the most recent planeVote.
func (sc *VoteScratch) groupWindows(g int) (lsb, msb uint32) {
	sh := uint(g * sc.geom.stride)
	return uint32(sc.planeLSB >> sh & sc.geom.groupLanes), uint32(sc.planeMSB >> sh & sc.geom.groupLanes)
}

// planeAccept applies the carry-propagation guard (and correction stats)
// to the candidate correction c at lane i against the scalar series vals,
// returning c if accepted and 0 if vetoed; lsb and msb are the series'
// window masks. The guard and its neighbor median are the scalar pass's
// (engine.go); only the candidate discovery differs.
func planeAccept(sc *VoteScratch, vals []uint32, i, half int, c, lsb, msb uint32, opt voteOptions) uint32 {
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
		opt.stats.BitsWindowA += bitutil.OnesCount32(c & msb)
		opt.stats.BitsWindowB += bitutil.OnesCount32(c & lsb &^ msb)
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
// series: it transposes vals into bit planes, votes all lanes at once as
// a one-series block at stride 64, and finalizes only the candidate
// lanes. Bit-identical to correctTemporalScratch; vals must fit in width
// bits and hold at most 64 values.
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
	clear(lanes[n:])
	bitutil.TransposeBlock64x32(lanes, width)
	sc.planeSetup(n, upsilon, lambda, 64, width, opt.literalPhi)
	anyC := planeVote(sc, lanes[:width], 1, opt)
	if anyC == 0 {
		return corr
	}
	if cap(sc.neigh) < upsilon {
		sc.neigh = make([]uint32, 0, upsilon)
	}
	// Scatter the candidate planes into the zeroed corr one set bit at a
	// time (bit b of corr[i] is bit i of cplanes[b]): one step per
	// candidate bit rather than width steps per candidate lane. Lanes at
	// or above n hold no candidates (planeVote masks them out).
	for b, p := range sc.cplanes {
		for ; p != 0; p &= p - 1 {
			corr[bits.TrailingZeros64(p)] |= 1 << uint(b)
		}
	}
	lsb, msb := sc.groupWindows(0)
	for m := anyC; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		corr[i] = planeAccept(sc, vals, i, sc.geom.half, corr[i], lsb, msb, opt)
	}
	return corr
}

// planeWorthIt reports whether the plane-major kernel beats the scalar
// pass for one series of n values at the given bit width. A one-series
// block's cost scales with width (every plane word is touched whether its
// lanes vote or not) while the scalar kernel's scales with n, so short
// series lose the transpose bet: measured on the dev machine the
// crossover sits near n = width/2 (n ~ 9 at width 16, n ~ 14 at width
// 32), and below it the scalar pass is up to ~2x faster. The upper bound
// is the 64-lane block. The stack path has its own cut (stackOnPlanes).
func planeWorthIt(n, width int) bool {
	return 2*n >= width+4 && n <= 64
}

// stackOnPlanes reports whether the stack pass votes n-readout stacks on
// the plane kernel: every depth the kernel votes at all (n >= 3) and the
// 64-lane block holds. Below 17 readouts a stride-16 word splits its cost
// over four pixels, so even 4- and 8-readout stacks beat the scalar pass
// (BenchmarkProcessStackDepth/4 and /8).
func stackOnPlanes(n int) bool {
	return n >= 3 && n <= 64
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
// the flattened coordinate range [p0, p1) of s. Stacks of 3 to 64
// readouts stream through the plane kernel 64/stride pixels per block
// (processRangePlanes; see stackOnPlanes); shallower and deeper stacks,
// and a ScalarOnly configuration, take the per-series scalar pass. An
// instrumented algorithm stages the pass's counters in the scratch and
// feeds the registry once per call.
func (a *AlgoNGST) ProcessStackPlanes(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	p0, p1 = clampRange(s, p0, p1)
	if a.cfg.Sensitivity == 0 || p0 >= p1 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	collect := stats
	if a.tel != nil || a.log != nil {
		sc.stats = VoteStats{}
		collect = &sc.stats
	}
	if a.cfg.ScalarOnly || !stackOnPlanes(s.Len()) {
		a.processRangeScalar(s, p0, p1, sc, collect)
	} else {
		a.processRangePlanes(s, p0, p1, sc, collect)
	}
	if collect == &sc.stats {
		a.finishPass(sc.stats, stats)
	}
}

// processRangePlanes is the plane-kernel stack pass over [p0, p1): each
// block of 64/stride consecutive pixels is gathered straight into the
// packed transpose state, transposed and voted at once. Candidate
// corrections (the minority of lanes) are finalized per pixel against
// the scalar series unpacked from a copy of the gathered words. Votes
// are computed against the original planes, so corrections do not
// cascade, and the block is never scattered back — corrections XOR
// directly into the frames. collect may be nil.
func (a *AlgoNGST) processRangePlanes(s *dataset.Stack, p0, p1 int, sc *VoteScratch, collect *VoteStats) {
	n := s.Len()
	stride := dataset.LaneStride(n)
	sc.planeSetup(n, a.cfg.Upsilon, a.cfg.Sensitivity, stride, 16, a.cfg.LiteralPhi)
	half, groupLanes := sc.geom.half, sc.geom.groupLanes
	if cap(sc.neigh) < a.cfg.Upsilon {
		sc.neigh = make([]uint32, 0, a.cfg.Upsilon)
	}
	sc.vals = growU32(sc.vals, n)
	vals := sc.vals
	opt := a.cfg.voteOptions(collect)
	frames := s.Frames
	w, raw := (*[16]uint64)(sc.lanes64[:16]), (*[16]uint64)(sc.lanes64[16:32])
	cand := &sc.cand
	per := 64 / stride
	for base := p0; base < p1; base += per {
		groups := min(per, p1-base)
		dataset.GatherPacked(w, frames, base, groups, stride)
		*raw = *w
		bitutil.TransposePacked16(w)
		anyC := planeVote(sc, w[:], groups, opt)
		if anyC == 0 {
			continue
		}
		// Scatter the candidate planes into per-lane corrections one set
		// bit at a time; each lane's entry is read and re-zeroed below.
		for b, p := range sc.cplanes {
			for ; p != 0; p &= p - 1 {
				cand[bits.TrailingZeros64(p)] |= 1 << uint(b)
			}
		}
		for m := anyC; m != 0; {
			g := bits.TrailingZeros64(m) / stride
			lanes := groupLanes << uint(g*stride)
			p := base + g
			for t := range vals {
				l := g*stride + t
				vals[t] = uint32(uint16(raw[l&15] >> uint(l&^15)))
			}
			lsb, msb := sc.groupWindows(g)
			var before VoteStats
			if a.log != nil {
				before = *collect
			}
			for c := m & lanes; c != 0; c &= c - 1 {
				l := bits.TrailingZeros64(c)
				t := l - g*stride
				if v := planeAccept(sc, vals, t, half, cand[l], lsb, msb, opt); v != 0 {
					frames[t].Pix[p] ^= uint16(v)
				}
				cand[l] = 0
			}
			if a.log != nil {
				one := collect.since(before)
				one.WindowCBit = 16 - bits.OnesCount32(lsb)
				a.logSeries(one)
			}
			m &^= lanes
		}
	}
}

// processRangeScalar runs the per-series scalar pass over the flattened
// coordinate range [p0, p1) of s: the ScalarOnly oracle, and the path for
// depths the plane kernel does not serve. collect may be nil.
func (a *AlgoNGST) processRangeScalar(s *dataset.Stack, p0, p1 int, sc *VoteScratch, collect *VoteStats) {
	w := s.Width()
	for i := p0; i < p1; i++ {
		x, y := i%w, i/w
		sc.rser = s.SeriesAtBuf(x, y, sc.rser)
		var before VoteStats
		if a.log != nil {
			before = *collect
		}
		a.voteSeries(sc.rser, sc, collect)
		if a.log != nil {
			a.logSeries(collect.since(before))
		}
		s.SetSeriesAt(x, y, sc.rser)
	}
}

// finishPass fans a pass's staged counters out to the registry counters
// and the caller's collector (nil skips either).
func (a *AlgoNGST) finishPass(local VoteStats, stats *VoteStats) {
	if a.tel != nil {
		a.tel.add(local)
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
