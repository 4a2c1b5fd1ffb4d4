package bitutil

import (
	"math/rand"
	"testing"
)

// naiveTranspose is the bit-gather reference: planes[b] bit l = lane l bit b.
func naiveTranspose(lanes [64]uint64, width int) []uint64 {
	planes := make([]uint64, width)
	for b := 0; b < width; b++ {
		for l := 0; l < 64; l++ {
			planes[b] |= (lanes[l] >> uint(b) & 1) << uint(l)
		}
	}
	return planes
}

func randLanes(r *rand.Rand, width, n int) [64]uint64 {
	var lanes [64]uint64
	mask := uint64(1)<<uint(width) - 1
	for l := 0; l < n; l++ {
		lanes[l] = r.Uint64() & mask
	}
	return lanes
}

func TestTransposeBlockMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 2, 7, 15, 16, 17, 24, 31, 32} {
		for trial := 0; trial < 50; trial++ {
			n := 1 + r.Intn(64)
			lanes := randLanes(r, width, n)
			want := naiveTranspose(lanes, width)
			got := lanes
			TransposeBlock64x32(&got, width)
			for b := 0; b < width; b++ {
				if got[b] != want[b] {
					t.Fatalf("width=%d n=%d plane %d: got %016x want %016x", width, n, b, got[b], want[b])
				}
			}
		}
	}
}

// TestTransposePacked16MatchesNaive feeds the swap rounds a block packed
// the way a strided gather packs it (lane 16m+k in bits [16m, 16m+16) of
// word k) and checks the planes against the bit-gather reference.
func TestTransposePacked16MatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		lanes := randLanes(r, 16, 1+r.Intn(64))
		var w [16]uint64
		for k := range w {
			w[k] = lanes[k] | lanes[k+16]<<16 | lanes[k+32]<<32 | lanes[k+48]<<48
		}
		TransposePacked16(&w)
		for b, want := range naiveTranspose(lanes, 16) {
			if w[b] != want {
				t.Fatalf("trial %d plane %d: got %016x want %016x", trial, b, w[b], want)
			}
		}
	}
}

func TestLaneMask(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{-1, 0}, {0, 0}, {1, 1}, {3, 7}, {63, ^uint64(0) >> 1}, {64, ^uint64(0)}, {99, ^uint64(0)}}
	for _, c := range cases {
		if got := LaneMask(c.n); got != c.want {
			t.Errorf("LaneMask(%d) = %016x, want %016x", c.n, got, c.want)
		}
	}
}

func BenchmarkTransposeBlock64x16(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	lanes := randLanes(r, 16, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := lanes
		TransposeBlock64x32(&w, 16)
	}
}

func BenchmarkTransposeBlock64x32(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	lanes := randLanes(r, 32, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := lanes
		TransposeBlock64x32(&w, 32)
	}
}
