// Package orderstat holds the selection routine the robust noise
// estimates share: the OTIS trend guard's median absolute deviation and
// the per-series cosmic-ray integrators' median and MAD of readout
// differences (IntegrateRamp, and Integrate on one readout or more than
// 64; Integrate's bit-plane kernel selects on planes instead). Each needs
// one order statistic of a short, freshly filled buffer, so a selection
// in expected linear time replaces a full sort.
package orderstat

import (
	"cmp"
	"math/bits"
	"slices"
)

// sortMax is the range length at or below which Select stops
// partitioning and sorts what is left; slices.Sort finishes a range that
// short with an insertion sort.
const sortMax = 12

// Select returns the k-th smallest element of v (0-based), reordering v so
// that v[:k] <= v[k] <= v[k+1:]. The lower middle of an even-length median
// is therefore max(v[:k]) with k = len(v)/2. v must be NaN-free.
//
// Each round picks the median of three as the pivot and runs a three-way
// branchless Lomuto partition: a pass gathers the elements below the
// pivot, and a second pass, run only when k lies at or above them,
// gathers the elements equal to it. Selection narrows to the side that
// holds k and sorts ranges of at most sortMax elements. A budget of twice
// the bit length of len(v) partition rounds bounds the worst case; a
// range that exhausts it is sorted too, so adversarial input stays
// O(n log n).
func Select[T cmp.Ordered](v []T, k int) T {
	lo, hi := 0, len(v)-1
	for budget := 2 * bits.Len(uint(len(v))); hi-lo >= sortMax; budget-- {
		if budget == 0 {
			slices.Sort(v[lo : hi+1])
			return v[k]
		}
		// Order v[lo], v[mid], v[hi] with min and max, which return one
		// of their arguments, so the three slots are permuted, not
		// rewritten; v[mid] becomes the median of three.
		mid := lo + (hi-lo)/2
		a, b, c := v[lo], v[mid], v[hi]
		x, y := min(a, b), max(a, b)
		z := max(x, c)
		v[lo], v[mid], v[hi] = min(x, c), min(y, z), max(y, z)
		pivot := v[mid]
		lt := lo + partitionLess(v[lo:hi+1], pivot)
		if k < lt {
			hi = lt - 1
			continue
		}
		le := lt + partitionLessEq(v[lt:hi+1], pivot)
		if k < le {
			return v[k]
		}
		lo = le
	}
	slices.Sort(v[lo : hi+1])
	return v[k]
}

// partitionLess moves the elements of v below pivot to its front, in a
// branchless Lomuto pass, and returns their count. Every element is
// swapped into the boundary slot unconditionally and the boundary
// advances by the comparison's outcome, so the loop carries no
// data-dependent branch. Both passes stay out of line: inlined into
// Select's loop, their indices spill to the stack and a 63-element
// selection runs about twice as slow.
//
//go:noinline
func partitionLess[T cmp.Ordered](v []T, pivot T) int {
	j := 0
	for i, x := range v {
		v[i] = v[j]
		v[j] = x
		var inc int
		if x < pivot {
			inc = 1
		}
		j += inc
	}
	return j
}

// partitionLessEq is partitionLess for the elements at or below pivot.
//
//go:noinline
func partitionLessEq[T cmp.Ordered](v []T, pivot T) int {
	j := 0
	for i, x := range v {
		v[i] = v[j]
		v[j] = x
		var inc int
		if x <= pivot {
			inc = 1
		}
		j += inc
	}
	return j
}
