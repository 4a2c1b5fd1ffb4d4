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

// Tile identifies one fragment of a frame in the Figure 1 pipeline.
type Tile struct {
	// Index is the tile's ordinal in row-major tile order.
	Index int
	// X0, Y0 are the coordinates of the tile's top-left pixel in the
	// parent frame.
	X0, Y0 int
	// Stack holds the tile's pixels for every readout.
	Stack *Stack
}

// ErrBadGeometry is returned when a frame cannot be fragmented into an
// integral number of tiles.
var ErrBadGeometry = errors.New("dataset: frame dimensions are not a multiple of the tile size")

// Fragment splits the stack into square tiles of edge tile, preserving all
// readouts, in row-major tile order. It returns ErrBadGeometry if the frame
// dimensions are not multiples of tile.
func Fragment(s *Stack, tile int) ([]Tile, error) {
	w, h := s.Width(), s.Height()
	if tile <= 0 || w%tile != 0 || h%tile != 0 {
		return nil, fmt.Errorf("%w: %dx%d into %d", ErrBadGeometry, w, h, tile)
	}
	tilesX, tilesY := w/tile, h/tile
	out := make([]Tile, 0, tilesX*tilesY)
	for ty := 0; ty < tilesY; ty++ {
		for tx := 0; tx < tilesX; tx++ {
			t := Tile{
				Index: ty*tilesX + tx,
				X0:    tx * tile,
				Y0:    ty * tile,
				Stack: NewStack(s.Len(), tile, tile),
			}
			for i, f := range s.Frames {
				dst := t.Stack.Frames[i]
				for y := 0; y < tile; y++ {
					srcOff := (t.Y0+y)*w + t.X0
					copy(dst.Pix[y*tile:(y+1)*tile], f.Pix[srcOff:srcOff+tile])
				}
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// Reassemble reverses Fragment: it writes every tile back into a stack of
// the given frame dimensions. Tiles may arrive in any order. It returns an
// error if geometry is inconsistent or tiles are missing.
func Reassemble(tiles []Tile, n, width, height int) (*Stack, error) {
	if len(tiles) == 0 {
		return nil, errors.New("dataset: no tiles to reassemble")
	}
	tile := tiles[0].Stack.Width()
	if tile == 0 || width%tile != 0 || height%tile != 0 {
		return nil, fmt.Errorf("%w: %dx%d from %d", ErrBadGeometry, width, height, tile)
	}
	want := (width / tile) * (height / tile)
	if len(tiles) != want {
		return nil, fmt.Errorf("dataset: got %d tiles, want %d", len(tiles), want)
	}
	out := NewStack(n, width, height)
	seen := make(map[int]bool, len(tiles))
	for _, t := range tiles {
		if t.Stack.Len() != n || t.Stack.Width() != tile || t.Stack.Height() != tile {
			return nil, fmt.Errorf("dataset: tile %d has inconsistent geometry", t.Index)
		}
		if seen[t.Index] {
			return nil, fmt.Errorf("dataset: duplicate tile %d", t.Index)
		}
		seen[t.Index] = true
		for i := range out.Frames {
			src := t.Stack.Frames[i]
			for y := 0; y < tile; y++ {
				dstOff := (t.Y0+y)*width + t.X0
				copy(out.Frames[i].Pix[dstOff:dstOff+tile], src.Pix[y*tile:(y+1)*tile])
			}
		}
	}
	return out, nil
}
