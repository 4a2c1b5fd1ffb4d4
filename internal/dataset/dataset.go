// Package dataset defines the data containers shared by the whole
// reproduction: temporal pixel series and image stacks for the NGST
// benchmark (16-bit integer pixels, N readouts per baseline) and radiance
// cubes for the OTIS benchmark (32-bit float samples over x, y and
// wavelength).
//
// It also implements the fragmentation step of the paper's Figure 1
// architecture: a 1024x1024 detector frame is split into 128x128 tiles that
// the master hands to worker nodes, then reassembled.
package dataset

import (
	"errors"
	"fmt"
)

// Detector geometry constants from the paper (Section 2.1).
const (
	// DetectorSize is the NGST sensor array edge length in pixels.
	DetectorSize = 1024
	// TileSize is the edge length of the image segments handed to workers.
	TileSize = 128
	// BaselineReadouts is the number N of readouts per 1000-second
	// baseline (the paper uses 64 or 65; the evaluation uses 64).
	BaselineReadouts = 64
)

// Series is the temporal sequence of 16-bit readings of a single detector
// coordinate within one baseline: the paper's {P(i), i = 1..N}.
type Series []uint16

// Clone returns an independent copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Image is a 2-D frame of 16-bit pixels in row-major order.
type Image struct {
	Width  int
	Height int
	Pix    Pixels
}

// NewImage returns a zeroed Image of the given dimensions.
func NewImage(width, height int) *Image {
	return &Image{Width: width, Height: height, Pix: make(Pixels, width*height)}
}

// At returns the pixel at (x, y). It panics if the coordinate is out of
// bounds, mirroring slice indexing.
func (im *Image) At(x, y int) uint16 { return im.Pix[y*im.Width+x] }

// Set stores v at (x, y).
func (im *Image) Set(x, y int, v uint16) { im.Pix[y*im.Width+x] = v }

// Clone returns an independent copy of im.
func (im *Image) Clone() *Image {
	out := NewImage(im.Width, im.Height)
	copy(out.Pix, im.Pix)
	return out
}

// Stack is one NGST baseline: N readout frames of identical dimensions.
// Frame i holds readout i for every coordinate, so the temporal series of a
// coordinate is the sequence of that coordinate across frames.
type Stack struct {
	Frames []*Image
}

// NewStack returns a Stack of n zeroed frames of the given dimensions.
func NewStack(n, width, height int) *Stack {
	s := &Stack{Frames: make([]*Image, n)}
	for i := range s.Frames {
		s.Frames[i] = NewImage(width, height)
	}
	return s
}

// Len returns the number of readouts in the stack.
func (s *Stack) Len() int { return len(s.Frames) }

// Width returns the frame width, or 0 for an empty stack.
func (s *Stack) Width() int {
	if len(s.Frames) == 0 {
		return 0
	}
	return s.Frames[0].Width
}

// Height returns the frame height, or 0 for an empty stack.
func (s *Stack) Height() int {
	if len(s.Frames) == 0 {
		return 0
	}
	return s.Frames[0].Height
}

// SeriesAt extracts the temporal series of coordinate (x, y) across all
// readouts. It is the allocating convenience: each call returns a fresh
// Series the caller owns outright. Hot loops that walk many coordinates
// should use SeriesAtBuf and reuse one buffer instead.
func (s *Stack) SeriesAt(x, y int) Series {
	return s.SeriesAtBuf(x, y, nil)
}

// SeriesAtBuf is SeriesAt without the per-call allocation: it extracts the
// series into buf, growing it only when its capacity is insufficient, and
// returns the (possibly reallocated) slice. Passing the returned slice
// back in on the next call amortizes the allocation to one per stack
// depth change. A nil buf behaves like SeriesAt.
func (s *Stack) SeriesAtBuf(x, y int, buf Series) Series {
	if cap(buf) < len(s.Frames) {
		buf = make(Series, len(s.Frames))
	}
	buf = buf[:len(s.Frames)]
	for i, f := range s.Frames {
		buf[i] = f.At(x, y)
	}
	return buf
}

// SetSeriesAt writes ser back into coordinate (x, y) of every readout.
// It panics if len(ser) != s.Len().
func (s *Stack) SetSeriesAt(x, y int, ser Series) {
	if len(ser) != len(s.Frames) {
		panic(fmt.Sprintf("dataset: series length %d != stack depth %d", len(ser), len(s.Frames)))
	}
	for i, f := range s.Frames {
		f.Set(x, y, ser[i])
	}
}

// Clone returns a deep copy of the stack.
func (s *Stack) Clone() *Stack {
	out := &Stack{Frames: make([]*Image, len(s.Frames))}
	for i, f := range s.Frames {
		out.Frames[i] = f.Clone()
	}
	return out
}

// Cube is an OTIS radiance volume: Width x Height spatial samples at Bands
// wavelengths, stored as float32 in band-major, then row-major order.
type Cube struct {
	Width  int
	Height int
	Bands  int
	Data   []float32
}

// NewCube returns a zeroed Cube of the given dimensions.
func NewCube(width, height, bands int) *Cube {
	return &Cube{
		Width:  width,
		Height: height,
		Bands:  bands,
		Data:   make([]float32, width*height*bands),
	}
}

// index returns the flat offset of (x, y, band).
func (c *Cube) index(x, y, band int) int {
	return (band*c.Height+y)*c.Width + x
}

// At returns the sample at (x, y, band).
func (c *Cube) At(x, y, band int) float32 { return c.Data[c.index(x, y, band)] }

// Set stores v at (x, y, band).
func (c *Cube) Set(x, y, band int, v float32) { c.Data[c.index(x, y, band)] = v }

// Band returns the band-th spatial plane as an independent slice of length
// Width*Height in row-major order, backed by the cube's storage (mutations
// are visible in the cube).
func (c *Cube) Band(band int) []float32 {
	off := band * c.Width * c.Height
	return c.Data[off : off+c.Width*c.Height]
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	out := NewCube(c.Width, c.Height, c.Bands)
	copy(out.Data, c.Data)
	return out
}

// Tile identifies one fragment of a frame in the Figure 1 pipeline. A
// Tile whose Stack is nil is a window: the index and origin of a tile of
// a parent stack, as Grid.Window returns it, before its pixels are
// copied out.
type Tile struct {
	// Index is the tile's ordinal in row-major tile order.
	Index int
	// X0, Y0 are the coordinates of the tile's top-left pixel in the
	// parent frame.
	X0, Y0 int
	// Stack holds the tile's pixels for every readout.
	Stack *Stack
}

// ErrBadGeometry is returned for a stack the pipeline cannot index or
// tile: a missing stack or frame, frames of different sizes or whose
// pixel count is not their width times their height, or frame dimensions
// that are not positive multiples of the tile size.
var ErrBadGeometry = errors.New("dataset: bad stack geometry")

// Check reports whether the kernels can index s: at least one readout,
// no missing frame, and every frame the size of frame 0 with exactly
// width x height pixels. A nil s is reported like an empty one, so a
// stack that came off the wire can be checked as it is. Errors wrap
// ErrBadGeometry.
func (s *Stack) Check() error {
	if s == nil || len(s.Frames) == 0 {
		return fmt.Errorf("%w: no readouts", ErrBadGeometry)
	}
	var w, h int
	for i, f := range s.Frames {
		if f == nil {
			return fmt.Errorf("%w: frame %d is missing", ErrBadGeometry, i)
		}
		if i == 0 {
			w, h = f.Width, f.Height
		}
		if f.Width != w || f.Height != h || !f.Fits() {
			return fmt.Errorf("%w: frame %d is %dx%d with %d pixels; frame 0 is %dx%d",
				ErrBadGeometry, i, f.Width, f.Height, len(f.Pix), w, h)
		}
	}
	return nil
}

// Fits reports whether im holds exactly Width x Height pixels. It divides
// rather than multiplies, so hostile dimensions cannot overflow into a
// match.
func (im *Image) Fits() bool {
	n := len(im.Pix)
	switch {
	case im.Width < 0 || im.Height < 0:
		return false
	case im.Width == 0 || im.Height == 0:
		return n == 0
	}
	return n%im.Width == 0 && n/im.Width == im.Height
}

// Grid is the fragmentation of the paper's Figure 1: square tiles of edge
// Size laid over a frame in row-major order, TilesX to a row.
type Grid struct {
	Size, TilesX, TilesY int
}

// NewGrid checks s (Stack.Check) and lays tiles of edge tile over its
// frames. It returns ErrBadGeometry unless the frame dimensions are
// positive multiples of tile.
func NewGrid(s *Stack, tile int) (Grid, error) {
	if err := s.Check(); err != nil {
		return Grid{}, err
	}
	return newGrid(s.Width(), s.Height(), tile)
}

func newGrid(width, height, tile int) (Grid, error) {
	if tile <= 0 || width <= 0 || height <= 0 || width%tile != 0 || height%tile != 0 {
		return Grid{}, fmt.Errorf("%w: %dx%d frames into %d-pixel tiles", ErrBadGeometry, width, height, tile)
	}
	return Grid{Size: tile, TilesX: width / tile, TilesY: height / tile}, nil
}

// Len returns the number of tiles.
func (g Grid) Len() int { return g.TilesX * g.TilesY }

// Window returns tile i as a window: its index and origin, no pixels.
func (g Grid) Window(i int) Tile {
	return Tile{Index: i, X0: i % g.TilesX * g.Size, Y0: i / g.TilesX * g.Size}
}

// CopyWindow copies the window of src whose top-left pixel is (x0, y0)
// into dst, readout by readout; the window is the size of dst's frames.
// dst must be as deep as src and the window must lie inside src's frames.
func CopyWindow(dst, src *Stack, x0, y0 int) {
	w, h, stride := dst.Width(), dst.Height(), src.Width()
	for i, f := range src.Frames {
		out := dst.Frames[i].Pix
		for y := 0; y < h; y++ {
			off := (y0+y)*stride + x0
			copy(out[y*w:(y+1)*w], f.Pix[off:off+w])
		}
	}
}

// Fragment splits the stack into square tiles of edge tile, preserving all
// readouts, in row-major tile order: each Grid window copied out. It
// returns ErrBadGeometry for a stack that fails Stack.Check or whose frame
// dimensions are not positive multiples of tile.
func Fragment(s *Stack, tile int) ([]Tile, error) {
	g, err := NewGrid(s, tile)
	if err != nil {
		return nil, err
	}
	out := make([]Tile, g.Len())
	for i := range out {
		t := g.Window(i)
		t.Stack = NewStack(s.Len(), tile, tile)
		CopyWindow(t.Stack, s, t.X0, t.Y0)
		out[i] = t
	}
	return out, nil
}

// Reassemble reverses Fragment: it writes every tile back into a stack of
// n frames of the given dimensions. Tiles may arrive in any order. It
// returns an error if a tile's stack fails Stack.Check, if tiles are
// missing or duplicated, or if a tile's depth, size or origin does not fit
// the grid of its index.
func Reassemble(tiles []Tile, n, width, height int) (*Stack, error) {
	if len(tiles) == 0 {
		return nil, errors.New("dataset: no tiles to reassemble")
	}
	for _, t := range tiles {
		if err := t.Stack.Check(); err != nil {
			return nil, fmt.Errorf("dataset: tile %d: %w", t.Index, err)
		}
	}
	tile := tiles[0].Stack.Width()
	g, err := newGrid(width, height, tile)
	if err != nil {
		return nil, err
	}
	// Count by division, so hostile dimensions cannot overflow into a
	// match.
	if len(tiles)%g.TilesX != 0 || len(tiles)/g.TilesX != g.TilesY {
		return nil, fmt.Errorf("dataset: got %d tiles, want %dx%d", len(tiles), g.TilesX, g.TilesY)
	}
	seen := make([]bool, len(tiles))
	for _, t := range tiles {
		if t.Index < 0 || t.Index >= len(tiles) {
			return nil, fmt.Errorf("dataset: tile %d is outside the %dx%d grid", t.Index, g.TilesX, g.TilesY)
		}
		w := g.Window(t.Index)
		if t.Stack.Len() != n || t.Stack.Width() != tile || t.Stack.Height() != tile || t.X0 != w.X0 || t.Y0 != w.Y0 {
			return nil, fmt.Errorf("dataset: tile %d has inconsistent geometry", t.Index)
		}
		if seen[t.Index] {
			return nil, fmt.Errorf("dataset: duplicate tile %d", t.Index)
		}
		seen[t.Index] = true
	}
	out := NewStack(n, width, height)
	for _, t := range tiles {
		for i, f := range out.Frames {
			src := t.Stack.Frames[i].Pix
			for y := 0; y < tile; y++ {
				off := (t.Y0+y)*width + t.X0
				copy(f.Pix[off:off+tile], src[y*tile:(y+1)*tile])
			}
		}
	}
	return out, nil
}
