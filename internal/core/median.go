package core

import (
	"spaceproc/internal/dataset"
)

// Median3 is the paper's Algorithm 2: value-based median smoothing with a
// sliding window of three pixels, which the paper found to beat both wider
// median windows (more false alarms) and mean smoothing (less robust).
//
// Following the printed pseudocode, the filter runs in place and
// sequentially: P(1) is replaced first, and each P(i) is the median of the
// already-smoothed P(i-1), the current P(i), and the raw P(i+1).
type Median3 struct{}

var _ SeriesPreprocessor = Median3{}

// Name implements SeriesPreprocessor.
func (Median3) Name() string { return "MedianSmooth3" }

// ProcessSeries implements SeriesPreprocessor. The in-place sliding window
// needs no buffers, so the pass never allocates.
func (Median3) ProcessSeries(s dataset.Series) {
	n := len(s)
	if n < 3 {
		return
	}
	s[0] = median3u16(s[0], s[1], s[2])
	for i := 1; i < n-1; i++ {
		s[i] = median3u16(s[i-1], s[i], s[i+1])
	}
	s[n-1] = median3u16(s[n-3], s[n-2], s[n-1])
}

// ProcessStackPlanes implements SeriesPreprocessor: the sequential
// in-place median sweep in frame-major order. The value win for the
// generic filters is layout, not bit-slicing: whole rows of one frame at a
// time instead of a strided per-pixel series gather. The scalar recurrence
// P(i) = median(P(i-1) smoothed, P(i), P(i+1) raw) reads only already-final
// values of frame i-1 and raw values of frames i and i+1, so the in-place
// frame-by-frame sweep needs no buffers at all and is bit-identical to the
// per-series pass. It collects no stats.
func (Median3) ProcessStackPlanes(s *dataset.Stack, p0, p1 int, _ *VoteScratch, _ *VoteStats) {
	n := s.Len()
	p0, p1 = clampRange(s, p0, p1)
	if n < 3 || p0 >= p1 {
		return
	}
	f0, f1, f2 := s.Frames[0].Pix, s.Frames[1].Pix, s.Frames[2].Pix
	for i := p0; i < p1; i++ {
		f0[i] = median3u16(f0[i], f1[i], f2[i])
	}
	for t := 1; t < n-1; t++ {
		a, b, c := s.Frames[t-1].Pix, s.Frames[t].Pix, s.Frames[t+1].Pix
		for i := p0; i < p1; i++ {
			b[i] = median3u16(a[i], b[i], c[i])
		}
	}
	a, b, c := s.Frames[n-3].Pix, s.Frames[n-2].Pix, s.Frames[n-1].Pix
	for i := p0; i < p1; i++ {
		c[i] = median3u16(a[i], b[i], c[i])
	}
}

func median3u16(a, b, c uint16) uint16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// median3f32 is the float payload variant used by the OTIS adaptations.
func median3f32(a, b, c float32) float32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
