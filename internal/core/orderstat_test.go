package core

import (
	"cmp"
	"encoding/binary"
	"math"
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
