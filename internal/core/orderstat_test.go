package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spaceproc/internal/bitutil"
)

// sortWayThreshold is the sort-based reference for wayThreshold: CeilPow2
// of the phi-th element of the way sorted descending.
func sortWayThreshold(xors []uint32, lambda int, phiOf func(lambda, count int) int) uint32 {
	if len(xors) == 0 {
		return 1
	}
	sorted := slices.Clone(xors)
	slices.SortFunc(sorted, func(a, b uint32) int { return cmp.Compare(b, a) })
	return bitutil.CeilPow2(sorted[phiOf(lambda, len(sorted))-1])
}

// FuzzWayThreshold checks the class-histogram way threshold against the
// sort-based reference for arbitrary uint32 ways, including values above
// 2^31 whose ceiling overflows to 0, under both Phi formulas. shift moves
// the fuzzed words down so every power-of-two class gets exercised.
func FuzzWayThreshold(f *testing.F) {
	le := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	f.Add(le(40, 900, 7, 500, 120), uint8(80), uint8(0), false)
	f.Add(le(0, 1, 2, 3, 4, 5), uint8(100), uint8(0), true)
	f.Add(le(1<<31, 1<<31+1, math.MaxUint32, 3, 0), uint8(0), uint8(0), false)
	f.Add(le(1<<31+5, 1<<31+6, 1<<31+7, 9), uint8(50), uint8(0), true)
	f.Add(le(), uint8(20), uint8(0), false)
	f.Add([]byte("arbitrary way values of any length"), uint8(1), uint8(7), false)
	f.Fuzz(func(t *testing.T, raw []byte, lambdaRaw, shift uint8, literal bool) {
		lambda := int(lambdaRaw) % 101
		xors := make([]uint32, len(raw)/4)
		for i := range xors {
			xors[i] = binary.LittleEndian.Uint32(raw[4*i:]) >> (shift % 32)
		}
		phiOf := PruneIndex
		if literal {
			phiOf = PruneIndexLiteral
		}
		if got, want := wayThreshold(xors, lambda, phiOf), sortWayThreshold(xors, lambda, phiOf); got != want {
			t.Fatalf("wayThreshold(%v, L=%d, literal=%v) = %d, sort reference %d", xors, lambda, literal, got, want)
		}
	})
}

// TestSelectNthMatchesSort compares selection with a full sort on inputs
// full of duplicates, zeros and +Inf, for every rank of short slices and
// the median rank medianAbs asks for on long ones.
func TestSelectNthMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pools := [][]float64{
		{0},
		{0, 1},
		{0, 0, 0, 2, math.Inf(1)},
		{0, 1e-9, 1e-9, 3.5, 3.5, 3.5, math.Inf(1), math.Inf(1), 7},
	}
	draw := func(n, pool int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			if pool < len(pools) {
				vals[i] = pools[pool][r.Intn(len(pools[pool]))]
			} else {
				vals[i] = r.ExpFloat64()
			}
		}
		return vals
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		if trial%4 == 0 {
			n = 1 + r.Intn(5000)
		}
		vals := draw(n, r.Intn(len(pools)+1))
		want := slices.Clone(vals)
		slices.Sort(want)
		ranks := []int{(n - 1) / 2}
		if n <= 40 {
			ranks = ranks[:0]
			for k := 0; k < n; k++ {
				ranks = append(ranks, k)
			}
		}
		for _, k := range ranks {
			got := selectNth(slices.Clone(vals), k)
			if math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Fatalf("selectNth(n=%d, k=%d) = %v, sorted %v", n, k, got, want[k])
			}
		}
	}
	// Sorted, reversed and constant inputs: the classic worst cases for
	// a quickselect pivot rule.
	for _, n := range []int{2, 3, 1000, 4097} {
		asc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		for _, vals := range [][]float64{asc, desc, make([]float64, n)} {
			want := slices.Clone(vals)
			slices.Sort(want)
			if got := selectNth(slices.Clone(vals), (n-1)/2); got != want[(n-1)/2] {
				t.Fatalf("selectNth(n=%d) = %v, sorted %v", n, got, want[(n-1)/2])
			}
		}
	}
}

// TestMedian4MatchesMedianF32 runs the four-neighbor median network over
// every tuple from {-0, +0, 1, 2, 3}^4 and requires the exact bits the
// insertion-sort median returns. Mixed signed zeros are the hard case: a
// network that ignores argument order picks the wrong zero, e.g. Go's
// builtin min and max, which rank -0 below +0, give +0 for (0, -0, 1, 2)
// where the insertion sort gives -0.
func TestMedian4MatchesMedianF32(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	alphabet := []float32{negZero, 0, 1, 2, 3}
	var v [4]float32
	for code := 0; code < 625; code++ {
		c := code
		for i := range v {
			v[i] = alphabet[c%5]
			c /= 5
		}
		want := medianF32(slices.Clone(v[:]), 0)
		got := median4(v[0], v[1], v[2], v[3])
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("median4%v = %v (%08x), medianF32 %v (%08x)", v, got,
				math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}
