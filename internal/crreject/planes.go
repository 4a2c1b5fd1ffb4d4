package crreject

import (
	"math/bits"

	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// This file is the bit-plane integrator: Integrate's noise estimate, step
// test and sum for stacks of 2 to 64 readouts, restructured so one uint64
// word carries one bit plane of a block of readouts in the voter's layout
// (dataset.GatherPacked: lane g*stride+i holds readout i of the block's
// g-th pixel, four pixels per word up to 16 readouts, two up to 32). A
// readout difference d is held as the 17-bit offset-binary lane
// u = d + 2^16, whose unsigned order is d's signed order, so both medians
// are radix selects over planes: one AND, one count per pixel and one
// compare per plane. Four blocks run in lockstep, so the four dependency
// chains of a select overlap. The per-series pass in crreject.go is the
// oracle; TestCRIntegrateGolden and FuzzIntegrateRange assert the two are
// bit-identical.

// waveBlocks is the number of blocks the plane integrator runs in
// lockstep, a wave of 4*64/stride pixels.
const waveBlocks = 4

// planeGeom holds the plane integrator's constants for one depth.
type planeGeom struct {
	// n is the readout count, stride the lane stride and per the pixels
	// per block.
	n, stride, per int
	// rep1 has bit 0 of every stride-wide group field set; times
	// groupLanes (the low stride lanes) a word of one bit per group
	// spreads each bit over its group's lanes. top has every field's top
	// bit set.
	rep1, groupLanes, top uint64
	// valid selects, in every group, lanes 0..n-2: the lanes holding the
	// n-1 readout differences.
	valid uint64
}

func newPlaneGeom(n int) planeGeom {
	stride := dataset.LaneStride(n)
	g := planeGeom{n: n, stride: stride, per: 64 / stride, groupLanes: bitutil.LaneMask(stride)}
	for l := 0; l < 64; l += stride {
		g.rep1 |= 1 << uint(l)
	}
	g.top = g.rep1 << uint(stride-1)
	g.valid = bitutil.LaneMask(n-1) * g.rep1
	return g
}

// wave is the plane integrator's workspace for one wave: each plane word
// is indexed [plane][block], so a step over a plane visits the four
// blocks back to back. Pixel q of the wave is group q%per of block q/per.
type wave struct {
	w [waveBlocks][16]uint64 // gathered blocks, then their readout planes
	u [17][waveBlocks]uint64 // difference planes, offset binary
	x [18][waveBlocks]uint64 // doubled deviation planes
	// valid masks each block's difference lanes to its pixels.
	valid [waveBlocks]uint64
}

// integratePlanes is IntegrateRange for stacks of 2 to 64 readouts, one
// wave of 4*64/stride pixels at a time. Per pixel it reproduces
// integrateSeries: the same medians, the same float64 sigma and limit,
// and the same sum, which subtracts each removed step d_i from the n-1-i
// readouts after it.
func (r *Rejector) integratePlanes(s *dataset.Stack, p0, p1 int, out *dataset.Image, stats *Stats) {
	frames := s.Frames
	n := len(frames)
	g := newPlaneGeom(n)
	var wv wave
	for base := p0; base < p1; base += waveBlocks * g.per {
		count := min(waveBlocks*g.per, p1-base)
		sums := g.gather(&wv, frames, base, count)
		diffPlanes(&wv.u, &wv.w)
		g.deviationPlanes(&wv.x, &wv.u, g.twiceMedian(wv.u[:], &wv.valid))
		mad4 := g.twiceMedian(wv.x[:], &wv.valid)
		// |d| > limit exactly when |d| >= t; pixels whose limit flags
		// nothing stay unarmed.
		var armed [waveBlocks]uint64
		var bound [4 * waveBlocks]uint32
		for q := range count {
			if t, ok := r.stepBound(mad4[q]); ok {
				armed[q/g.per] |= g.groupLanes << uint(q%g.per*g.stride)
				bound[q] = t
			}
		}
		step := g.stepLanes(&wv.u, g.pack(&bound))
		for q := range count {
			p, j, f := base+q, q/g.per, uint(q%g.per*g.stride)
			sum := sums[q]
			if m := (step[j] & wv.valid[j] & armed[j]) >> f & g.groupLanes; m != 0 {
				stats.Hits++
				stats.Steps += bits.OnesCount64(m)
				for ; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					d := int64(frames[i+1].Pix[p]) - int64(frames[i].Pix[p])
					sum -= d * int64(n-1-i)
				}
			}
			out.Pix[p] = meanValue(sum, n)
		}
	}
}

// gather loads the count pixels from base into the wave's blocks, one
// GatherPacked per block, sets each block's valid mask, transposes the
// blocks and returns each pixel's readout sum. The sums come from the
// packed state, before the transpose: field m of every word holds
// readouts of group m*16/stride, and even and odd fields add up in
// 32-bit halves, where 16 words of 16-bit readouts stay below 2^20.
// Blocks past the range keep stale planes under an empty valid mask.
func (g *planeGeom) gather(wv *wave, frames []*dataset.Image, base, count int) (sums [4 * waveBlocks]int64) {
	const halves = 0x0000FFFF0000FFFF
	for j := range wv.w {
		groups := min(max(count-j*g.per, 0), g.per)
		wv.valid[j] = g.valid & bitutil.LaneMask(groups*g.stride)
		if groups == 0 {
			continue
		}
		w := &wv.w[j]
		dataset.GatherPacked(w, frames, base+j*g.per, groups, g.stride)
		var even, odd uint64
		for _, v := range w {
			even += v & halves
			odd += v >> 16 & halves
		}
		for m, f := range [4]uint64{even & 0xFFFFFFFF, odd & 0xFFFFFFFF, even >> 32, odd >> 32} {
			sums[j*g.per+m*16/g.stride] += int64(f)
		}
		bitutil.TransposePacked16(w)
	}
	return sums
}

// diffPlanes fills u with the planes of u = d + 2^16 for every lane's
// difference d = next - this, where a lane's next readout is the lane
// above it (the plane shifted down one lane). It is a ripple-borrow
// subtract: the borrow out is set exactly where d < 0, so its complement
// is bit 16. A group's top lane reads the next group's first readout;
// valid masks those lanes out.
func diffPlanes(u *[17][waveBlocks]uint64, w *[waveBlocks][16]uint64) {
	for j := range w {
		var br uint64
		for b, p := range w[j] {
			nx := p >> 1
			u[b][j] = nx ^ p ^ br
			br = ^nx&p | ^(nx^p)&br
		}
		u[16][j] = ^br
	}
}

// twiceMedian returns, per pixel, twice the median of the values whose
// lanes valid selects: twice the middle one for an odd count, the sum of
// the two middle ones for an even count, as the per-series twiceMedian.
func (g *planeGeom) twiceMedian(planes [][waveBlocks]uint64, valid *[waveBlocks]uint64) [4 * waveBlocks]uint32 {
	m := g.n - 1
	hi := g.selectK(planes, valid, m/2)
	lo := hi
	if m%2 == 0 {
		lo = g.selectK(planes, valid, m/2-1)
	}
	for q := range hi {
		hi[q] += lo[q]
	}
	return hi
}

// selectK returns, per pixel, the k-th smallest (0-based) of the values
// in the lanes valid selects, planes[b] being bit plane b, by radix
// selection from the top plane down. Where a group's candidates with a 0
// in the plane number more than k, the k-th has a 0 there and they stay
// the candidates; otherwise it has a 1, the candidates with a 1 stay,
// and k drops by the zeros skipped. The step is branch-free: each group's
// count sits in its field, and (top|k) - count keeps the field's top bit
// exactly when k >= count (counts of at most 64 never borrow across
// fields); with ones spread over the groups that keep their 1s, the
// candidates drop the lanes where the plane differs from ones.
func (g *planeGeom) selectK(planes [][waveBlocks]uint64, valid *[waveBlocks]uint64, k int) (v [4 * waveBlocks]uint32) {
	stride, rep1, lanes, top := g.stride, g.rep1, g.groupLanes, g.top
	cand := *valid
	var kw [waveBlocks]uint64
	for j := range kw {
		kw[j] = uint64(k) * rep1
	}
	// The result's bits 0-15 and 16-17 collect at each field's low bits,
	// so a 16-lane field holds them too.
	var lo, hi [waveBlocks]uint64
	for b := len(planes) - 1; b >= 0; b-- {
		acc := &lo
		if b >= 16 {
			acc = &hi
		}
		sh := uint(b & 15)
		pl := &planes[b]
		for j := range pl {
			p := pl[j]
			z := cand[j] &^ p
			c := bitutil.GroupCounts(z, stride)
			one := ((kw[j] | top) - c) >> uint(stride-1) & rep1
			ones := one * lanes
			cand[j] &^= p ^ ones
			kw[j] -= c & ones
			acc[j] |= one << sh
		}
	}
	for q := range waveBlocks * g.per {
		j, f := q/g.per, uint(q%g.per*stride)
		v[q] = uint32(lo[j]>>f&0xFFFF | hi[j]>>f&3<<16)
	}
	return v
}

// deviationPlanes fills x with the planes of |2d - med2| per lane, the
// doubled deviations whose twice-median is four times the MAD. c is the
// per-pixel twice-median of u, which is med2 + 2^17, and 2u is u's planes
// moved up one, so 2u - c = 2d - med2: the offsets cancel. The subtract's
// borrow out marks the negative lanes, which a flip and an increment
// negate; every |2d - med2| is below 2^18.
func (g *planeGeom) deviationPlanes(x *[18][waveBlocks]uint64, u *[17][waveBlocks]uint64, c [4 * waveBlocks]uint32) {
	cw := g.pack(&c)
	for j := range cw {
		var a, br uint64
		for b := range x {
			cb := g.spread(&cw[j], b)
			x[b][j] = a ^ cb ^ br
			br = ^a&cb | ^(a^cb)&br
			if b < len(u) {
				a = u[b][j]
			}
		}
		carry := br
		for b := range x {
			y := x[b][j] ^ br
			x[b][j] = y ^ carry
			carry &= y
		}
	}
}

// stepLanes returns, per block, the lanes whose |d| is at least t, a
// packed per-pixel constant below 2^16. |d| is u's low planes, negated
// (flip and increment) where bit 16 marks d < 0, and the compare is the
// borrow out of a bit-serial subtract of t.
func (g *planeGeom) stepLanes(u *[17][waveBlocks]uint64, t [waveBlocks][2]uint64) (step [waveBlocks]uint64) {
	for j := range step {
		neg := ^u[16][j]
		carry, br := neg, uint64(0)
		for b := range 16 {
			y := u[b][j] ^ neg
			a := y ^ carry
			carry &= y
			tb := g.spread(&t[j], b)
			br = ^a&tb | ^(a^tb)&br
		}
		step[j] = ^br
	}
	return step
}

// pack places each pixel's constant (below 2^18) in its block's group
// field: bits 0-15 in the first word and bits 16-17 in the second, so a
// 16-lane field holds it too.
func (g *planeGeom) pack(v *[4 * waveBlocks]uint32) (cw [waveBlocks][2]uint64) {
	for q := range waveBlocks * g.per {
		j, f := q/g.per, uint(q%g.per*g.stride)
		cw[j][0] |= uint64(v[q]&0xFFFF) << f
		cw[j][1] |= uint64(v[q]>>16) << f
	}
	return cw
}

// spread returns bit b of every group's packed constant, over the group's
// lanes.
func (g *planeGeom) spread(cw *[2]uint64, b int) uint64 {
	return (cw[b>>4&1] >> uint(b&15) & g.rep1) * g.groupLanes
}
