package dataset

import (
	"fmt"

	"spaceproc/internal/bitutil"
)

// PlaneStack is the plane-major (bit-sliced) view of a Stack's pixels: for
// every pixel, each of the Width bit planes of its temporal series is one
// packed uint64 word whose bit t is bit b of readout t. In this layout the
// voter algebra of the preprocessing algorithms — XOR ways, unanimity,
// GRT quorum — runs as whole-word operations over all readouts of a pixel
// at once instead of one 32-bit value at a time.
//
// The view holds up to 64 readouts (one lane per readout; stacks use
// BaselineReadouts = 64) for a window of Pixels flattened row-major
// coordinates. It is a gather/scatter cache, not an owner: Gather fills it
// from a Stack, Scatter writes it back, and the preprocessing hot paths
// stream fixed-size windows of a stack through one scratch-held PlaneStack.
type PlaneStack struct {
	// Depth is the number of readouts (lanes) per pixel, in [1, 64].
	Depth int
	// Width is the number of bit planes per pixel, in [1, 32].
	Width int
	// Pixels is the view's pixel capacity.
	Pixels int
	// Words holds the planes, pixel-major: pixel p's plane b is
	// Words[p*Width+b].
	Words []uint64
}

// ErrPlaneGeometry is returned when a stack cannot be viewed plane-major
// (more than 64 readouts, or an empty geometry).
var ErrPlaneGeometry = fmt.Errorf("dataset: geometry unsuitable for a plane-major view")

// NewPlaneStack returns a zeroed plane-major view for depth readouts,
// width bit planes and pixels coordinates.
func NewPlaneStack(depth, width, pixels int) (*PlaneStack, error) {
	if depth < 1 || depth > 64 || width < 1 || width > 32 || pixels < 1 {
		return nil, fmt.Errorf("%w: depth=%d width=%d pixels=%d", ErrPlaneGeometry, depth, width, pixels)
	}
	return &PlaneStack{
		Depth:  depth,
		Width:  width,
		Pixels: pixels,
		Words:  make([]uint64, pixels*width),
	}, nil
}

// FromStack transposes a whole stack into a fresh 16-bit-plane view.
func FromStack(s *Stack) (*PlaneStack, error) {
	npix := s.Width() * s.Height()
	if npix == 0 {
		return nil, fmt.Errorf("%w: empty stack", ErrPlaneGeometry)
	}
	ps, err := NewPlaneStack(s.Len(), 16, npix)
	if err != nil {
		return nil, err
	}
	ps.Gather(s, 0, npix)
	return ps, nil
}

// Planes returns pixel p's bit planes (Width words, lane t = readout t).
func (ps *PlaneStack) Planes(p int) []uint64 {
	off := p * ps.Width
	return ps.Words[off : off+ps.Width : off+ps.Width]
}

// Gather transposes count pixels starting at flattened coordinate p0 of s
// into the view's first count slots and returns count (clamped to the
// view's capacity and the stack's pixel count). Slots past count keep
// their previous contents; it reads only pixels [p0, p0+count), so
// disjoint pixel ranges gather concurrently from a shared stack.
func (ps *PlaneStack) Gather(s *Stack, p0, count int) int {
	if count > ps.Pixels {
		count = ps.Pixels
	}
	if npix := s.Width() * s.Height(); count > npix-p0 {
		count = npix - p0
	}
	if count <= 0 || s.Len() != ps.Depth {
		return 0
	}
	var lanes [64]uint64
	frames := s.Frames
	for i := 0; i < count; i++ {
		for t, f := range frames {
			lanes[t] = uint64(f.Pix[p0+i]) & (1<<uint(ps.Width) - 1)
		}
		for t := ps.Depth; t < 64; t++ {
			lanes[t] = 0
		}
		bitutil.TransposeBlock64x32(&lanes, ps.Width)
		copy(ps.Planes(i), lanes[:ps.Width])
	}
	return count
}

// LaneStride returns the lane stride of the plane kernels for n
// readouts: the smallest of 16, 32 and 64 that holds them. A plane word
// then carries 64/stride pixels, lane g*stride+r holding readout r of the
// block's g-th pixel.
func LaneStride(n int) int {
	switch {
	case n <= 16:
		return 16
	case n <= 32:
		return 32
	}
	return 64
}

// GatherPacked loads the pixels [p, p+groups) of frames into the packed
// state bitutil.TransposePacked16 expects for a block at the lane stride:
// lane g*stride+r (readout r of pixel p+g), written 16m+k, sits in bits
// [16m, 16m+16) of word k, so field m of every word belongs to group
// m*16/stride. At stride 16 word r of a full block is the four pixels of
// frame r read as one little-endian word. Lanes of missing readouts and
// pixels are zero. It reads only pixels inside the range.
func GatherPacked(w *[16]uint64, frames []*Image, p, groups, stride int) {
	if stride == 16 && groups == 4 {
		for r, f := range frames {
			px := f.Pix[p : p+4 : p+4]
			w[r] = uint64(px[0]) | uint64(px[1])<<16 | uint64(px[2])<<32 | uint64(px[3])<<48
		}
		clear(w[len(frames):])
		return
	}
	clear(w[:])
	for r, f := range frames {
		for g := 0; g < groups; g++ {
			l := g*stride + r
			w[l&15] |= uint64(f.Pix[p+g]) << uint(l&^15)
		}
	}
}

// Scatter untransposes the view's first count slots back into s at
// flattened coordinate p0, reversing Gather. It returns the number of
// pixels written (clamped like Gather).
func (ps *PlaneStack) Scatter(s *Stack, p0, count int) int {
	if count > ps.Pixels {
		count = ps.Pixels
	}
	if npix := s.Width() * s.Height(); count > npix-p0 {
		count = npix - p0
	}
	if count <= 0 || s.Len() != ps.Depth {
		return 0
	}
	var lanes [64]uint64
	frames := s.Frames
	for i := 0; i < count; i++ {
		copy(lanes[:ps.Width], ps.Planes(i))
		bitutil.UntransposeBlock64x32(&lanes, ps.Width)
		for t, f := range frames {
			f.Pix[p0+i] = uint16(lanes[t])
		}
	}
	return count
}

// ToStack writes the whole view back into s (a convenience over Scatter
// for full-stack views, used by tests and round-trip checks).
func (ps *PlaneStack) ToStack(s *Stack) int {
	return ps.Scatter(s, 0, ps.Pixels)
}
