// Package bitutil provides the bit-plane primitives shared by the fault
// injectors and the preprocessing algorithms: masks, bit runs, power-of-two
// order statistics, bitwise votes, and the plane-major block transpose
// over 16-bit pixels and 32-bit float payloads.
//
// Bit positions follow the paper's convention where useful (offset 0 is the
// most significant bit of a 16-bit pixel), but every function documents the
// convention it uses explicitly.
package bitutil

import "math/bits"

// Word16 is the pixel word width used by the NGST benchmark.
const Word16 = 16

// Word32 is the payload width of an OTIS float32 sample.
const Word32 = 32

// CeilPow2 returns the lowest power of two that is >= v. CeilPow2(0) == 1,
// matching the paper's use of a power-of-two cut-off that is always a
// positive bit weight.
func CeilPow2(v uint32) uint32 {
	if v <= 1 {
		return 1
	}
	return 1 << uint(32-bits.LeadingZeros32(v-1))
}

// BitIndex returns the index (0 = least significant) of the highest set bit
// of v, or -1 if v == 0.
func BitIndex(v uint32) int {
	if v == 0 {
		return -1
	}
	return 31 - bits.LeadingZeros32(v)
}

// MaskAtOrAbove returns a width-bit mask selecting bit positions >= bit
// (LSB-0 convention). If bit >= width the mask is empty; if bit <= 0 the
// mask selects all width bits.
func MaskAtOrAbove(bit, width int) uint32 {
	if bit >= width {
		return 0
	}
	if bit < 0 {
		bit = 0
	}
	full := widthMask(width)
	return full &^ (1<<uint(bit) - 1)
}

func widthMask(width int) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(width) - 1
}

// OnesCount16 returns the number of set bits in v.
func OnesCount16(v uint16) int { return bits.OnesCount16(v) }

// OnesCount32 returns the number of set bits in v.
func OnesCount32(v uint32) int { return bits.OnesCount32(v) }

// LongestRun returns the length of the longest run of true values in m.
func LongestRun(m []bool) int {
	best, cur := 0, 0
	for _, v := range m {
		if v {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 0
		}
	}
	return best
}

// MajorityVote3 returns the bitwise two-of-three majority of a, b and c.
// This is the inner operation of the paper's Algorithm 3.
func MajorityVote3(a, b, c uint16) uint16 {
	return (a & b) | (b & c) | (a & c)
}

// MajorityVote3x32 is MajorityVote3 for 32-bit payloads (OTIS floats).
func MajorityVote3x32(a, b, c uint32) uint32 {
	return (a & b) | (b & c) | (a & c)
}

// LeaveOneOutAND implements the paper's GRT function: it returns the bitwise
// OR over k of the AND of all values except index k. A bit is therefore set
// iff at least len(vals)-1 of the values have it set. For len(vals) < 2 it
// returns 0 (no quorum is possible).
func LeaveOneOutAND(vals []uint32) uint32 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	// A bit is set in some leave-one-out AND iff it is clear in at most one
	// value: zero1 accumulates bits clear somewhere, zero2 bits clear in two
	// or more values. Running accumulators keep the GRT vote allocation-free
	// (the per-pixel hot path of every voter pass goes through here).
	var zero1, zero2 uint32
	for _, v := range vals {
		zero2 |= zero1 &^ v
		zero1 |= ^v
	}
	return ^zero2
}

// ANDAll returns the bitwise AND of all values; for an empty slice it
// returns 0 (an empty voter set can never vote for a correction).
func ANDAll(vals []uint32) uint32 {
	if len(vals) == 0 {
		return 0
	}
	out := ^uint32(0)
	for _, v := range vals {
		out &= v
	}
	return out
}
