package dataset

import (
	"math/rand"
	"testing"

	"spaceproc/internal/bitutil"
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

func TestPlaneStackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, geom := range []struct{ depth, w, h int }{
		{64, 8, 8}, {64, 7, 9}, {3, 5, 5}, {17, 130, 3}, {1, 1, 1},
	} {
		src := randStack(r, geom.depth, geom.w, geom.h)
		dst := NewStack(geom.depth, geom.w, geom.h)
		ps, err := FromStack(src)
		if err != nil {
			t.Fatalf("FromStack(%+v): %v", geom, err)
		}
		if n := ps.ToStack(dst); n != geom.w*geom.h {
			t.Fatalf("ToStack wrote %d pixels, want %d", n, geom.w*geom.h)
		}
		for fi := range src.Frames {
			for i, v := range src.Frames[fi].Pix {
				if dst.Frames[fi].Pix[i] != v {
					t.Fatalf("geom %+v frame %d pixel %d: got %04x want %04x",
						geom, fi, i, dst.Frames[fi].Pix[i], v)
				}
			}
		}
	}
}

// TestPlaneStackPlanesMatchSeries checks the plane-major invariant directly:
// bit t of pixel p's plane b equals bit b of readout t at pixel p.
func TestPlaneStackPlanesMatchSeries(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := randStack(r, 64, 6, 4)
	ps, err := FromStack(s)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint16, s.Len())
	for p := 0; p < 24; p++ {
		x, y := p%6, p/6
		series := s.SeriesAtBuf(x, y, buf)
		planes := ps.Planes(p)
		for b := 0; b < 16; b++ {
			for tt, v := range series {
				want := uint64(v) >> uint(b) & 1
				if got := planes[b] >> uint(tt) & 1; got != want {
					t.Fatalf("pixel %d plane %d lane %d: got %d want %d", p, b, tt, got, want)
				}
			}
		}
	}
}

// TestPlaneStackPartialWindow streams a stack through a small view in
// 64-pixel windows, flips one plane per pixel, and checks the scatter
// touched exactly the windowed range.
func TestPlaneStackPartialWindow(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	src := randStack(r, 32, 10, 10)
	work := randStack(r, 32, 10, 10)
	for fi := range src.Frames {
		copy(work.Frames[fi].Pix, src.Frames[fi].Pix)
	}
	ps, err := NewPlaneStack(32, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := 30, 77 // unaligned window inside the 100-pixel stack
	for base := p0; base < p1; base += 64 {
		cnt := p1 - base
		if cnt > 64 {
			cnt = 64
		}
		if got := ps.Gather(work, base, cnt); got != cnt {
			t.Fatalf("Gather(%d, %d) = %d", base, cnt, got)
		}
		for i := 0; i < cnt; i++ {
			ps.Planes(i)[0] ^= bitutil.LaneMask(32)
		}
		if got := ps.Scatter(work, base, cnt); got != cnt {
			t.Fatalf("Scatter(%d, %d) = %d", base, cnt, got)
		}
	}
	for fi := range src.Frames {
		for i, v := range src.Frames[fi].Pix {
			want := v
			if i >= p0 && i < p1 {
				want ^= 1
			}
			if work.Frames[fi].Pix[i] != want {
				t.Fatalf("frame %d pixel %d: got %04x want %04x", fi, i, work.Frames[fi].Pix[i], want)
			}
		}
	}
}

func TestPlaneStackClamping(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := randStack(r, 16, 4, 4)
	ps, err := NewPlaneStack(16, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Gather(s, 10, 64); got != 6 {
		t.Errorf("Gather past stack end: got %d want 6", got)
	}
	if got := ps.Gather(s, 16, 64); got != 0 {
		t.Errorf("Gather at stack end: got %d want 0", got)
	}
	wrongDepth := randStack(r, 8, 4, 4)
	if got := ps.Gather(wrongDepth, 0, 16); got != 0 {
		t.Errorf("Gather depth mismatch: got %d want 0", got)
	}
	if got := ps.Scatter(wrongDepth, 0, 16); got != 0 {
		t.Errorf("Scatter depth mismatch: got %d want 0", got)
	}
}

func TestPlaneStackGeometryErrors(t *testing.T) {
	for _, c := range []struct{ depth, width, pixels int }{
		{0, 16, 1}, {65, 16, 1}, {64, 0, 1}, {64, 33, 1}, {64, 16, 0},
	} {
		if _, err := NewPlaneStack(c.depth, c.width, c.pixels); err == nil {
			t.Errorf("NewPlaneStack(%d, %d, %d): want error", c.depth, c.width, c.pixels)
		}
	}
	empty := NewStack(4, 0, 0)
	if _, err := FromStack(empty); err == nil {
		t.Error("FromStack(empty): want error")
	}
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
