package dataset

import (
	"errors"
	"slices"
	"testing"

	"spaceproc/internal/rng"
)

// malformedStacks are stacks whose frames no kernel can index: each entry
// point must refuse them with ErrBadGeometry, not panic.
func malformedStacks() map[string]*Stack {
	return map[string]*Stack{
		"nil stack":     nil,
		"no frames":     {},
		"nil frame":     {Frames: []*Image{NewImage(64, 64), nil}},
		"smaller frame": {Frames: []*Image{NewImage(64, 64), NewImage(8, 8)}},
		"short pixels":  {Frames: []*Image{{Width: 64, Height: 64, Pix: make(Pixels, 64*63)}}},
		"long pixels":   {Frames: []*Image{{Width: 8, Height: 8, Pix: make(Pixels, 65)}}},
		"negative size": {Frames: []*Image{{Width: -8, Height: -8, Pix: make(Pixels, 64)}}},
	}
}

func TestFragmentRejectsMalformedStack(t *testing.T) {
	for name, s := range malformedStacks() {
		if err := s.Check(); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("%s: Check = %v, want ErrBadGeometry", name, err)
		}
		if _, err := Fragment(s, 32); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("%s: Fragment = %v, want ErrBadGeometry", name, err)
		}
	}
	// Empty frames are indexable, but no tile fits in them.
	empty := NewStack(2, 0, 0)
	if err := empty.Check(); err != nil {
		t.Errorf("Check rejected 0x0 frames: %v", err)
	}
	if _, err := Fragment(empty, 32); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("Fragment of 0x0 frames = %v, want ErrBadGeometry", err)
	}
}

// TestReassembleRejectsMalformedTile puts each malformed stack in the
// first and in the last tile of an otherwise sound set, and moves one
// tile's origin off its grid cell and outside the frame.
func TestReassembleRejectsMalformedTile(t *testing.T) {
	tiles, err := Fragment(randomStack(t, 2, 128, 64, 5), 64)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range malformedStacks() {
		for _, i := range []int{0, len(tiles) - 1} {
			bad := slices.Clone(tiles)
			bad[i].Stack = s
			if _, err := Reassemble(bad, 2, 128, 64); err == nil {
				t.Errorf("%s in tile %d: reassembled", name, i)
			}
		}
	}
	for name, move := range map[string]func(*Tile){
		"origin off its cell":     func(t *Tile) { t.X0 = 32 },
		"origin outside frame":    func(t *Tile) { t.X0 = 128 },
		"index outside grid":      func(t *Tile) { t.Index = 2 },
		"negative index":          func(t *Tile) { t.Index = -1 },
		"origin at another cell":  func(t *Tile) { t.X0 = 0 },
		"negative frame position": func(t *Tile) { t.Y0 = -64 },
	} {
		bad := slices.Clone(tiles)
		move(&bad[1])
		if _, err := Reassemble(bad, 2, 128, 64); err == nil {
			t.Errorf("%s: reassembled", name)
		}
	}
	if _, err := Reassemble(tiles, 2, -128, -64); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("negative frame: %v, want ErrBadGeometry", err)
	}
}

// fuzzStack builds a stack from fuzzed geometry: n frames (a nil stack
// when the top bit of frames is set), those in nilMask missing, those in
// wideMask one pixel wider than the rest, and the last frame's pixel run
// off width x height by delta.
func fuzzStack(frames uint8, width, height int8, nilMask, wideMask uint8, delta int8, seed uint64) *Stack {
	if frames&0x80 != 0 {
		return nil
	}
	src := rng.New(seed)
	s := &Stack{Frames: make([]*Image, frames%8)}
	for i := range s.Frames {
		if nilMask>>i&1 != 0 {
			continue
		}
		im := &Image{Width: int(width), Height: int(height)}
		if wideMask>>i&1 != 0 {
			im.Width++
		}
		n := max(im.Width*im.Height, 0)
		if i == len(s.Frames)-1 {
			n = max(n+int(delta), 0)
		}
		im.Pix = make(Pixels, n)
		for j := range im.Pix {
			im.Pix[j] = uint16(src.Uint32())
		}
		s.Frames[i] = im
	}
	return s
}

// FuzzFragmentGeometry feeds Stack.Check, Fragment and Reassemble stacks
// of arbitrary depth, frame sizes, pixel runs and missing frames, and
// Reassemble a lone tile at an arbitrary index and origin. Each call
// must return an error or succeed, never panic; a stack that fragments
// must pass Check and reassemble to itself.
func FuzzFragmentGeometry(f *testing.F) {
	f.Add(uint8(4), int8(64), int8(32), int8(32), uint8(0), uint8(0), int8(0), int8(0), int8(0), uint64(1))
	f.Add(uint8(3), int8(16), int8(16), int8(8), uint8(2), uint8(0), int8(0), int8(8), int8(0), uint64(2))  // nil frame
	f.Add(uint8(2), int8(9), int8(8), int8(8), uint8(0), uint8(2), int8(0), int8(0), int8(0), uint64(3))    // wider frame
	f.Add(uint8(1), int8(8), int8(8), int8(8), uint8(0), uint8(0), int8(-9), int8(0), int8(0), uint64(4))   // short pixels
	f.Add(uint8(0x80), int8(8), int8(8), int8(8), uint8(0), uint8(0), int8(0), int8(0), int8(0), uint64(5)) // nil stack
	f.Add(uint8(2), int8(-8), int8(-8), int8(8), uint8(0), uint8(0), int8(0), int8(0), int8(0), uint64(6))  // negative size
	f.Fuzz(func(t *testing.T, frames uint8, width, height, tile int8, nilMask, wideMask uint8, delta, x0, y0 int8, seed uint64) {
		s := fuzzStack(frames, width, height, nilMask, wideMask, delta, seed)
		checkErr := s.Check()
		if checkErr != nil && !errors.Is(checkErr, ErrBadGeometry) {
			t.Fatalf("Check = %v, not ErrBadGeometry", checkErr)
		}
		tiles, err := Fragment(s, int(tile))
		if err == nil {
			if checkErr != nil {
				t.Fatalf("Fragment accepted a stack Check rejects: %v", checkErr)
			}
			back, err := Reassemble(tiles, s.Len(), s.Width(), s.Height())
			if err != nil {
				t.Fatalf("a %dx%dx%d stack fragmented into %d-pixel tiles does not reassemble: %v",
					s.Width(), s.Height(), s.Len(), tile, err)
			}
			if !slices.EqualFunc(back.Frames, s.Frames, func(a, b *Image) bool { return slices.Equal(a.Pix, b.Pix) }) {
				t.Fatal("reassembled stack differs from the fragmented one")
			}
		}
		lone := []Tile{{Index: int(x0) / 8, X0: int(x0), Y0: int(y0), Stack: s}}
		if back, err := Reassemble(lone, int(frames%8), int(width), int(height)); err == nil {
			if checkErr != nil || back.Len() != s.Len() || back.Width() != s.Width() || back.Height() != s.Height() {
				t.Fatalf("reassembled a lone tile of geometry %dx%dx%d (check %v) into %dx%dx%d",
					s.Width(), s.Height(), s.Len(), checkErr, back.Width(), back.Height(), back.Len())
			}
		}
	})
}
