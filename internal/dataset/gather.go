package dataset

// The plane kernels' gather: the pixels of a block of temporal series
// loaded straight into the packed state of bitutil.TransposePacked16.

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
