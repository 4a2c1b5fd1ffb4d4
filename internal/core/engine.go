// Package core implements the paper's contribution: dynamic, sensitivity-
// scaled preprocessing of raw input data that identifies and repairs memory
// bit flips before the application consumes the data.
//
// Four algorithms are provided:
//
//   - AlgoNGST (Algorithm 1): the dynamic bit-window voter algorithm for
//     temporally redundant 16-bit pixel series.
//   - Median3 (Algorithm 2): sliding-window median smoothing, the paper's
//     first generic baseline.
//   - MajorityBit3 (Algorithm 3): sliding-window bitwise majority voting,
//     the paper's second generic baseline.
//   - AlgoOTIS (Section 7.2): the spatial adaptation of AlgoNGST for
//     32-bit floating point radiance planes, augmented with absolute
//     physical bounds and natural-trend preservation.
//
// The reconstruction choices for the OCR-damaged parts of Algorithm 1 are
// documented in DESIGN.md section 4 and on the functions below.
package core

import (
	"math/bits"

	"spaceproc/internal/bitutil"
)

// PruneIndex computes the paper's Phi: the 1-based order statistic (into
// the descending-sorted XOR values of one voter way) whose value becomes
// the way's pruning cut-off.
//
// Reconstruction notes (DESIGN.md #4.2):
//
//   - The printed formula Phi = floor(N/4 + (80-Lambda)/100 * (N/4-1))
//     decreases with Lambda, contradicting the prose ("if the sensitivity
//     is higher, the total voters ... will increase"); we use the
//     sign-corrected form, monotone increasing in Lambda.
//   - The paper's ways hold N/2 elements each (its pairing indexes even
//     pixels only), so N/4 is the *median* of a way at Lambda = 80. Our
//     ways keep every pairing (~count = N-d elements), so the formula is
//     expressed relative to the way size: Phi = floor(count/2 +
//     (Lambda-80)/100 * (count/2-1)), clamped to [1, count]. Keeping the
//     reference point at the way median is what lets the threshold stay a
//     natural-variation statistic even when a third of the XOR values are
//     fault-inflated.
func PruneIndex(lambda, count int) int {
	if count < 1 {
		return 1
	}
	half := float64(count) / 2
	phi := int(half + float64(lambda-80)/100*(half-1))
	if phi < 1 {
		phi = 1
	}
	if phi > count {
		phi = count
	}
	return phi
}

// PruneIndexLiteral is the formula exactly as printed in the paper
// (decreasing in Lambda, anchored at count/4); it exists for the ablation
// that justifies the sign correction (DESIGN.md #4.2) and is not used by
// the default algorithm.
func PruneIndexLiteral(lambda, count int) int {
	if count < 1 {
		return 1
	}
	quarter := float64(count) / 4
	phi := int(quarter + float64(80-lambda)/100*(quarter-1))
	if phi < 1 {
		phi = 1
	}
	if phi > count {
		phi = count
	}
	return phi
}

// wayHist counts one voter way's XOR values by CeilPow2 class: value v
// lands in bucket k(v) = 0 for v <= 1 and bits.Len32(v-1) otherwise, so
// CeilPow2(v) == 1<<k(v), with bucket 32 holding the values whose ceiling
// overflows uint32.
type wayHist [33]int

// add counts one XOR value.
func (h *wayHist) add(v uint32) {
	h[bits.Len32(max(v, 1)-1)]++
}

// threshold returns the way cut-off Vval: CeilPow2 of the phi-th greatest
// counted value. CeilPow2 is monotone, so that is the ceiling of the
// phi-th greatest class, found by walking the buckets down from the top
// instead of sorting the values. Class 32 yields 0, reproducing
// CeilPow2's uint32 overflow (the plane kernel's wayCut mirrors it); an
// empty way yields 1.
func (h *wayHist) threshold(phi int) uint32 {
	n := 0
	for k := 32; k > 0; k-- {
		if n += h[k]; n >= phi {
			return uint32(1) << k
		}
	}
	return 1
}

// wayThreshold computes one voter way's cut-off Vval: the lowest power of
// two >= the Phi-th greatest XOR value of the way, with phiOf choosing Phi
// (PruneIndex, or PruneIndexLiteral for the literal-formula ablation).
// XOR values <= Vval are pruned (cannot vote).
func wayThreshold(xors []uint32, lambda int, phiOf func(lambda, count int) int) uint32 {
	var h wayHist
	for _, v := range xors {
		h.add(v)
	}
	return h.threshold(phiOf(lambda, len(xors)))
}

// windowMasks derives the A/B/C bit-window delimiters from the per-way
// cut-offs (DESIGN.md #4.3):
//
//   - window C (ignored) is every bit strictly below the bit index of the
//     smallest Vval: below it no pairing yields locality information, so
//     lsbMask keeps only bits at or above that index;
//   - window A (most stable, relaxed quorum) is every bit at or above the
//     bit index of the largest Vval, selected by msbMask.
//
// Window B is the complement between them; A is contained in not-C.
func windowMasks(vvals []uint32, width int) (lsbMask, msbMask uint32) {
	if len(vvals) == 0 {
		return bitutil.MaskAtOrAbove(0, width), 0
	}
	minV, maxV := vvals[0], vvals[0]
	for _, v := range vvals[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	lsbMask = bitutil.MaskAtOrAbove(bitutil.BitIndex(minV), width)
	msbMask = bitutil.MaskAtOrAbove(bitutil.BitIndex(maxV), width)
	return lsbMask, msbMask
}

// voteOptions carries the ablation switches of the temporal voter pass.
// The zero value is the paper-faithful default configuration.
type voteOptions struct {
	// disableQuorum turns off the GRT (Upsilon-1 agreement) auxiliary
	// vote in window A, leaving unanimous voting only.
	disableQuorum bool
	// disableCarryGuard turns off the value-space acceptance test
	// (DESIGN.md #4.8).
	disableCarryGuard bool
	// literalPhi uses the formula exactly as printed (DESIGN.md #4.2
	// ablation).
	literalPhi bool
	// staticWindows, when true, replaces the dynamic masks with fixed
	// window boundaries: C = bits < staticLSB, A = bits >= staticMSB.
	staticWindows        bool
	staticLSB, staticMSB int
	// stats, when non-nil, accumulates observability counters.
	stats *VoteStats
}

// VoteStats counts what one or more voter passes did — the telemetry a
// flight implementation would downlink to tune Lambda from the ground.
type VoteStats struct {
	// Series is the number of series processed.
	Series int
	// Corrected is the number of pixels whose value was repaired.
	Corrected int
	// BitsWindowA and BitsWindowB count corrected bits by window (window
	// C is never corrected by construction).
	BitsWindowA int
	BitsWindowB int
	// GuardRejected counts candidate corrections the carry-propagation
	// guard vetoed.
	GuardRejected int
	// WindowCBit is the most recent window C boundary (bit index of the
	// smallest way cut-off), a proxy for how much of the word the
	// dynamic thresholds consider unrecoverable.
	WindowCBit int
}

// Add merges other into s. WindowCBit is a most-recent-value gauge, not a
// sum, so it is taken from other only when other actually processed a
// series: merging a zero-value VoteStats (a tile that ran without
// preprocessing) must not clobber the aggregate's boundary with 0.
func (s *VoteStats) Add(other VoteStats) {
	s.Series += other.Series
	s.Corrected += other.Corrected
	s.BitsWindowA += other.BitsWindowA
	s.BitsWindowB += other.BitsWindowB
	s.GuardRejected += other.GuardRejected
	if other.Series > 0 {
		s.WindowCBit = other.WindowCBit
	}
}

// since returns what s counted after the snapshot before, with s's
// current window C boundary: one series' share of a running collector.
func (s VoteStats) since(before VoteStats) VoteStats {
	return VoteStats{
		Series:        s.Series - before.Series,
		Corrected:     s.Corrected - before.Corrected,
		BitsWindowA:   s.BitsWindowA - before.BitsWindowA,
		BitsWindowB:   s.BitsWindowB - before.BitsWindowB,
		GuardRejected: s.GuardRejected - before.GuardRejected,
		WindowCBit:    s.WindowCBit,
	}
}

// correctTemporal runs the Algorithm 1 voter pass over a temporal series of
// payload words (16-bit pixels widened to uint32, or float32 bit patterns).
// upsilon is the (even) number of neighbors each pixel consults; lambda the
// sensitivity. It returns the correction vector for every element; the
// caller applies them (P(i) ^= corr[i]).
//
// The voter matrix is built once from the damaged input and every
// correction is computed against it, so corrections do not cascade.
func correctTemporal(vals []uint32, upsilon, lambda, width int) []uint32 {
	return correctTemporalOpt(vals, upsilon, lambda, width, voteOptions{})
}

// correctTemporalOpt is correctTemporal with ablation switches. It
// allocates a fresh correction vector; the hot paths go through
// correctTemporalScratch instead.
func correctTemporalOpt(vals []uint32, upsilon, lambda, width int, opt voteOptions) []uint32 {
	var sc VoteScratch
	out := make([]uint32, len(vals))
	copy(out, correctTemporalScratch(&sc, vals, upsilon, lambda, width, opt))
	return out
}

// correctTemporalScratch is the voter pass against caller-owned scratch.
// The returned correction vector is sc.corr — owned by the scratch and
// overwritten by the next pass — so with a warm scratch the whole pass
// performs zero heap allocations.
func correctTemporalScratch(sc *VoteScratch, vals []uint32, upsilon, lambda, width int, opt voteOptions) []uint32 {
	n := len(vals)
	sc.corr = growU32(sc.corr, n)
	corr := sc.corr
	for i := range corr {
		corr[i] = 0
	}
	if lambda <= 0 || n < 3 || upsilon < 2 {
		return corr
	}
	half := upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	phiOf := PruneIndex
	if opt.literalPhi {
		phiOf = PruneIndexLiteral
	}

	// xors[d-1][i] = vals[i] XOR vals[i+d]: the forward-d and backward-d
	// ways share this value set (XOR is symmetric), as in the paper's
	// V_(2a-1)/V_(2a) pairing. All ways live in one backing buffer.
	total := 0
	for d := 1; d <= half; d++ {
		total += n - d
	}
	sc.wayBuf = growU32(sc.wayBuf, total)
	if cap(sc.ways) < half {
		sc.ways = make([][]uint32, half)
	}
	xors := sc.ways[:half]
	sc.vvals = growU32(sc.vvals, half)
	vvals := sc.vvals
	off := 0
	for d := 1; d <= half; d++ {
		w := sc.wayBuf[off : off+n-d : off+n-d]
		off += n - d
		for i := 0; i < n-d; i++ {
			w[i] = vals[i] ^ vals[i+d]
		}
		xors[d-1] = w
		vvals[d-1] = wayThreshold(w, lambda, phiOf)
	}
	lsbMask, msbMask := windowMasks(vvals, width)
	if opt.staticWindows {
		lsbMask = bitutil.MaskAtOrAbove(opt.staticLSB, width)
		msbMask = bitutil.MaskAtOrAbove(opt.staticMSB, width)
	}
	if opt.disableQuorum {
		msbMask = 0
	}
	if opt.stats != nil {
		opt.stats.Series++
		opt.stats.WindowCBit = width - bitutil.OnesCount32(lsbMask)
	}

	if cap(sc.phis) < upsilon {
		sc.phis = make([]uint32, 0, upsilon)
	}
	if cap(sc.neigh) < upsilon {
		sc.neigh = make([]uint32, 0, upsilon)
	}
	phis := sc.phis[:0]
	neigh := sc.neigh[:0]
	for i := 0; i < n; i++ {
		phis = phis[:0]
		neigh = neigh[:0]
		for d := 1; d <= half; d++ {
			// Forward neighbor i+d.
			if i+d < n {
				phis = append(phis, pruned(xors[d-1][i], vvals[d-1]))
				neigh = append(neigh, vals[i+d])
			}
			// Backward neighbor i-d.
			if i-d >= 0 {
				phis = append(phis, pruned(xors[d-1][i-d], vvals[d-1]))
				neigh = append(neigh, vals[i-d])
			}
		}
		if len(phis) < 2 {
			continue
		}
		unanimous := bitutil.ANDAll(phis)
		quorum := bitutil.LeaveOneOutAND(phis)
		c := (unanimous | (quorum & msbMask)) & lsbMask
		if c == 0 {
			continue
		}
		// Carry-propagation guard (DESIGN.md #4, "after taking carry
		// propagation effects into consideration"): when a natural
		// variation crosses a power-of-two boundary, the carry cascade
		// sets many XOR bits at once, so the cascade's shared high bits
		// masquerade as flips. Genuine repairs move the pixel toward its
		// consulted neighborhood by roughly the correction's own binary
		// weight; cascade artifacts move it away or barely at all. Accept
		// the correction only if it recovers at least half its weight.
		if !opt.disableCarryGuard {
			med := medianU32(neigh)
			before, after := dist32(vals[i], med), dist32(vals[i]^c, med)
			if after > before || before-after < c/2 {
				if opt.stats != nil {
					opt.stats.GuardRejected++
				}
				continue
			}
		}
		corr[i] = c
		if opt.stats != nil {
			opt.stats.Corrected++
			opt.stats.BitsWindowA += bitutil.OnesCount32(c & msbMask)
			opt.stats.BitsWindowB += bitutil.OnesCount32(c & lsbMask &^ msbMask)
		}
	}
	return corr
}

// medianU32 returns the lower median of vals (vals is scratch and may be
// reordered). Insertion sort keeps the hot path allocation-free; vals is
// at most Upsilon long.
func medianU32(vals []uint32) uint32 {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
	return vals[(len(vals)-1)/2]
}

// dist32 returns |a - b| for unsigned payloads.
func dist32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// pruned zeroes a voter whose XOR value does not exceed the way cut-off.
func pruned(x, vval uint32) uint32 {
	if x <= vval {
		return 0
	}
	return x
}
