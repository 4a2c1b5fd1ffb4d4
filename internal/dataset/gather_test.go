package dataset

import (
	"math/rand"
	"testing"
)

func randStack(r *rand.Rand, depth, w, h int) *Stack {
	s := NewStack(depth, w, h)
	for _, f := range s.Frames {
		for i := range f.Pix {
			f.Pix[i] = uint16(r.Uint32())
		}
	}
	return s
}

// TestGatherPackedMatchesLanes checks the packed gather against its
// lane definition, lane g*stride+r holding readout r of pixel p+g and
// every other lane zero, at every depth and every block fill from one
// pixel to 64/stride.
func TestGatherPackedMatchesLanes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for depth := 1; depth <= 64; depth++ {
		s := randStack(r, depth, 9, 1)
		stride := LaneStride(depth)
		for groups := 1; groups <= 64/stride; groups++ {
			for p := 0; p+groups <= 9; p += 5 {
				var w [16]uint64
				for i := range w {
					w[i] = r.Uint64()
				}
				GatherPacked(&w, s.Frames, p, groups, stride)
				var want [64]uint64
				for g := 0; g < groups; g++ {
					for rd, f := range s.Frames {
						want[g*stride+rd] = uint64(f.Pix[p+g])
					}
				}
				for l, v := range want {
					if got := w[l&15] >> uint(l&^15) & 0xFFFF; got != v {
						t.Fatalf("depth %d groups %d p %d: lane %d = %04x, want %04x", depth, groups, p, l, got, v)
					}
				}
			}
		}
	}
}
