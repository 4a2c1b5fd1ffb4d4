package bitutil

import "math/bits"

// Plane-major (bit-sliced) primitives. A block is up to 64 lanes — the
// readouts of one pixel's temporal series, or the pixels of one spatial
// vote tile — each carrying a value of up to 32 bits. The transposed
// representation stores one uint64 word per bit plane, where bit l of
// plane b is bit b of lane l's value, so a whole-block bitwise operation
// (XOR way construction, unanimity, GRT quorum) is one word op instead of
// 64 scalar ones.
//
// Lane and bit positions are both LSB-0: lane 0 lives in bit 0 of every
// plane word, and plane 0 is the least significant bit of every value.

// LaneMask returns a word with the low n lane bits set (n clamped to
// [0, 64]).
func LaneMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Block-diagonal swap masks: swapMask(j) selects, inside every 2j-bit
// group of a word, the low j bits.
const (
	swap1  = 0x5555555555555555
	swap2  = 0x3333333333333333
	swap4  = 0x0F0F0F0F0F0F0F0F
	swap8  = 0x00FF00FF00FF00FF
	swap16 = 0x0000FFFF0000FFFF
)

// swapRound performs one masked block-swap round of the 64x64 bit-matrix
// transpose at scale j over w[0:limit]: for every word pair (k, k+j) with
// bit j of k clear, the j-by-j sub-blocks that sit across the diagonal are
// exchanged. The rounds for distinct j commute, and each is an involution.
func swapRound(w []uint64, j int, m uint64, limit int) {
	for k := 0; k < limit; k = ((k | j) + 1) &^ j {
		t := (w[k]>>uint(j) ^ w[k+j]) & m
		w[k] ^= t << uint(j)
		w[k+j] ^= t
	}
}

// TransposePacked16 finishes a width <= 16 block transpose from its
// packed state: on entry w[k] holds lane k+16m in bits [16m, 16m+16) for
// m = 0..3; on return w[b] holds bit plane b. TransposeBlock64x32 packs
// its lanes into that state and calls it. A caller whose data already
// sits there skips the packing: four consecutive 16-bit pixels of one
// frame, read as one little-endian word, are word k of a block whose lane
// 16m+k is readout k of the m-th pixel.
func TransposePacked16(w *[16]uint64) {
	s := w[:]
	swapRound(s, 8, swap8, 16)
	swapRound(s, 4, swap4, 16)
	swapRound(s, 2, swap2, 16)
	swapRound(s, 1, swap1, 16)
}

// TransposeBlock64x32 transposes a block in place from lane-major to
// plane-major: on entry w[l] holds lane l's value in its low width bits
// (width in [1, 32]; bits at or above width must be zero); on return w[b]
// holds bit plane b for b < width. Words w[width:] are left with
// unspecified contents.
//
// The kernel is the classic masked-swap bit-matrix transpose specialized
// for narrow values: because only the low width bits of every lane are
// populated, the two (width <= 32) or three (width <= 16) coarsest swap
// rounds degenerate into shift-OR packing, and the remaining rounds only
// touch the first 32 (respectively 16) words. A 64-lane 16-bit block
// transposes in ~250 word operations — about 4 per lane, versus the 16
// load/shift/or steps per lane of a scalar bit gather.
func TransposeBlock64x32(w *[64]uint64, width int) {
	if width <= 16 {
		// Rounds j=32 and j=16 on data confined to the low 16 bits of
		// every word reduce to packing four lanes per word.
		for k := 0; k < 16; k++ {
			w[k] = w[k] | w[k+16]<<16 | w[k+32]<<32 | w[k+48]<<48
		}
		TransposePacked16((*[16]uint64)(w[:16]))
		return
	}
	// Round j=32 on data confined to the low 32 bits packs two lanes per
	// word.
	for k := 0; k < 32; k++ {
		w[k] = w[k] | w[k+32]<<32
	}
	s := w[:32]
	swapRound(s, 16, swap16, 32)
	swapRound(s, 8, swap8, 32)
	swapRound(s, 4, swap4, 32)
	swapRound(s, 2, swap2, 32)
	swapRound(s, 1, swap1, 32)
}

// GroupCounts returns the population count of each stride-wide field of
// v (stride 16, 32 or 64), in that field: the per-pixel lane count of a
// plane word that packs 64/stride pixels.
func GroupCounts(v uint64, stride int) uint64 {
	if stride == 64 {
		return uint64(bits.OnesCount64(v))
	}
	v -= v >> 1 & swap1
	v = v&swap2 + v>>2&swap2
	v = (v + v>>4) & swap4
	v = (v + v>>8) & swap8
	if stride == 32 {
		v = (v + v>>16) & swap16
	}
	return v
}

// OnesCount64 returns the number of set bits in v (the lane-population
// count of a plane word).
func OnesCount64(v uint64) int { return bits.OnesCount64(v) }
