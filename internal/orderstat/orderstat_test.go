package orderstat

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSelect selects rank k of a copy of vals and requires the sorted
// k-th element, bit for bit under eq, and the partition postcondition
// v[:k] <= v[k] <= v[k+1:].
func checkSelect[T cmp.Ordered](t *testing.T, vals []T, k int, eq func(a, b T) bool) {
	t.Helper()
	want := slices.Clone(vals)
	slices.Sort(want)
	v := slices.Clone(vals)
	got := Select(v, k)
	if !eq(got, want[k]) {
		t.Fatalf("Select(n=%d, k=%d) = %v, sorted %v", len(vals), k, got, want[k])
	}
	if !eq(v[k], got) {
		t.Fatalf("Select(n=%d, k=%d) returned %v but left %v at k", len(vals), k, got, v[k])
	}
	for i, x := range v {
		if (i < k && x > got) || (i > k && x < got) {
			t.Fatalf("Select(n=%d, k=%d): v[%d] = %v on the wrong side of %v", len(vals), k, i, x, got)
		}
	}
	if !slices.Equal(sortedCopy(v), want) {
		t.Fatalf("Select(n=%d, k=%d) did not permute its input", len(vals), k)
	}
}

func sortedCopy[T cmp.Ordered](v []T) []T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// ranks are the ranks checkSelect visits: every rank of a short slice,
// and on long ones both middles of the median plus the ends.
func ranks(n int) []int {
	if n <= 40 {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	return []int{0, (n - 1) / 2, n / 2, n - 1}
}

// TestSelectNthMatchesSort compares selection with a full sort for
// float64 and int32 inputs full of duplicates, zeros and +Inf (float64)
// or the extremes of a doubled uint16 difference (int32), for every rank
// of short slices and the median ranks of long ones.
func TestSelectNthMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	floatPools := [][]float64{
		{0},
		{0, 1},
		{0, 0, 0, 2, math.Inf(1)},
		{0, 1e-9, 1e-9, 3.5, 3.5, 3.5, math.Inf(1), math.Inf(1), 7},
	}
	intPools := [][]int32{
		{0},
		{-1, 1},
		{0, 0, 0, 2, 131070},
		{-131070, -2, -2, 0, 6, 6, 6, 131070, 131070},
	}
	floatEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	intEq := func(a, b int32) bool { return a == b }
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		if trial%4 == 0 {
			n = 1 + r.Intn(5000)
		}
		pool := r.Intn(len(floatPools) + 1)
		fv := make([]float64, n)
		iv := make([]int32, n)
		for i := range fv {
			if pool < len(floatPools) {
				fv[i] = floatPools[pool][r.Intn(len(floatPools[pool]))]
				iv[i] = intPools[pool][r.Intn(len(intPools[pool]))]
			} else {
				fv[i] = r.ExpFloat64()
				iv[i] = int32(r.Intn(2*131070+1) - 131070)
			}
		}
		for _, k := range ranks(n) {
			checkSelect(t, fv, k, floatEq)
			checkSelect(t, iv, k, intEq)
		}
	}
	// Sorted, reversed, constant and organ-pipe inputs: the classic worst
	// cases for a quickselect pivot rule.
	for _, n := range []int{2, 3, 12, 13, 1000, 4097} {
		asc := make([]int32, n)
		for i := range asc {
			asc[i] = int32(i)
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		pipe := make([]int32, n)
		for i := range pipe {
			pipe[i] = int32(min(i, n-1-i))
		}
		for _, vals := range [][]int32{asc, desc, make([]int32, n), pipe} {
			for _, k := range ranks(n) {
				checkSelect(t, vals, k, intEq)
				fv := make([]float64, n)
				for i, x := range vals {
					fv[i] = float64(x)
				}
				checkSelect(t, fv, k, floatEq)
			}
		}
	}
}
