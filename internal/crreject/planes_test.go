package crreject

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// planeConfigs are the rejector settings the plane kernel is diffed
// under: the defaults, no floor, a floor that dominates, and the edges of
// the exact step test (a NaN or infinite threshold or floor makes the
// limit NaN or infinite, a tiny one floors it to zero). Settings New
// rejects are skipped.
var planeConfigs = []Config{
	DefaultConfig(),
	{Threshold: 3, SigmaFloor: 0},
	{Threshold: 8.5, SigmaFloor: 0.5},
	{Threshold: 1, SigmaFloor: 40},
	{Threshold: 0.1, SigmaFloor: 0},
	{Threshold: 1e-300, SigmaFloor: 0},
	{Threshold: math.Inf(1), SigmaFloor: 0},
	{Threshold: math.NaN(), SigmaFloor: 2},
	{Threshold: 5, SigmaFloor: math.Inf(1)},
	{Threshold: 5, SigmaFloor: math.NaN()},
}

// checkRangeMatchesSeries integrates [p0, p1) of s with IntegrateRange
// and with the per-series pass, and fails on any pixel or Stats
// difference, or on a write outside the range.
func checkRangeMatchesSeries(t *testing.T, r *Rejector, s *dataset.Stack, p0, p1 int) {
	t.Helper()
	const sentinel = 0xA5C3
	got, want := dataset.NewImage(s.Width(), s.Height()), dataset.NewImage(s.Width(), s.Height())
	for i := range got.Pix {
		got.Pix[i], want.Pix[i] = sentinel, sentinel
	}
	var gotStats, wantStats Stats
	r.IntegrateRange(s, p0, p1, got, new(Scratch), &gotStats)
	r.integrateRange(s, p0, p1, want, new(Scratch), &wantStats, (*Rejector).integrateSeries)
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			ser := s.SeriesAt(i%s.Width(), i/s.Width())
			t.Fatalf("depth %d %+v range [%d,%d) pixel %d: IntegrateRange %d, per-series %d (series %v)",
				s.Len(), r.cfg, p0, p1, i, got.Pix[i], want.Pix[i], ser)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("depth %d %+v range [%d,%d): IntegrateRange stats %+v, per-series %+v",
			s.Len(), r.cfg, p0, p1, gotStats, wantStats)
	}
}

// TestIntegrateRangeMatchesSeries diffs the plane kernel against the
// per-series pass at every depth from 1 to 70, on synthetic scenes with
// cosmic-ray hits and on random stacks narrowed to a few bits (small
// noise, so the step test fires often), under every plane config, over
// the whole stack and sub-ranges that start off the 4-pixel word.
func TestIntegrateRangeMatchesSeries(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for depth := 1; depth <= 70; depth++ {
		cfg := synth.DefaultSceneConfig()
		cfg.Width, cfg.Height, cfg.Readouts = 7, 5, depth
		cfg.Stars = 2
		scene, err := synth.NewScene(cfg, rng.New(uint64(depth)))
		if err != nil {
			t.Fatal(err)
		}
		narrow := dataset.NewStack(depth, 9, 3)
		shift := uint(r.Intn(16))
		for _, f := range narrow.Frames {
			for i := range f.Pix {
				f.Pix[i] = uint16(r.Uint32()) >> shift
			}
		}
		for _, s := range []*dataset.Stack{scene.Observed, narrow} {
			npix := s.Width() * s.Height()
			for _, c := range planeConfigs {
				rej, err := New(c)
				if err != nil {
					continue
				}
				checkRangeMatchesSeries(t, rej, s, 0, npix)
				for _, p0 := range []int{1, 3, 4, 8} {
					checkRangeMatchesSeries(t, rej, s, p0, p0+r.Intn(npix-p0+1))
				}
			}
		}
	}
}

// FuzzIntegrateRange diffs IntegrateRange against the per-series pass on
// fuzzed stacks: depth 1-70 (the plane kernel serves 2-64), 1-23 pixels,
// a sub-range that may start off a 4-pixel word, readouts narrowed by a
// shift, and any threshold and floor New accepts, NaN and +Inf included.
// Readouts cycle through raw, so a short input still fills the stack.
func FuzzIntegrateRange(f *testing.F) {
	le := func(vs ...uint16) []byte {
		b := make([]byte, 2*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	f.Add(le(1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007), uint8(15), uint8(6), uint8(1), uint8(5), uint8(0), 5.0, 2.0)
	f.Add(le(12000, 12000, 12000, 20000, 20000), uint8(63), uint8(9), uint8(0), uint8(9), uint8(0), 5.0, 2.0)
	f.Add(le(0, 65535, 0, 65535, 0), uint8(31), uint8(13), uint8(3), uint8(7), uint8(0), 3.0, 0.0)
	f.Add(le(5, 9, 2, 7, 3, 8), uint8(16), uint8(22), uint8(4), uint8(17), uint8(12), 1e-300, 0.0)
	f.Add(le(65535, 0, 0, 65535), uint8(1), uint8(5), uint8(2), uint8(3), uint8(0), math.Inf(1), 0.0)
	f.Add([]byte("arbitrary readouts of any length, narrowed by shift"), uint8(68), uint8(3), uint8(1), uint8(2), uint8(9), math.NaN(), 0.5)
	f.Fuzz(func(t *testing.T, raw []byte, depth, pixels, from, span, shift uint8, threshold, floor float64) {
		rej, err := New(Config{Threshold: threshold, SigmaFloor: floor})
		if err != nil {
			return
		}
		n, npix := 1+int(depth)%70, 1+int(pixels)%23
		s := dataset.NewStack(n, npix, 1)
		if words := len(raw) / 2; words > 0 {
			k := 0
			for _, fr := range s.Frames {
				for i := range fr.Pix {
					fr.Pix[i] = binary.LittleEndian.Uint16(raw[2*(k%words):]) >> (shift % 16)
					k++
				}
			}
		}
		p0 := int(from) % npix
		p1 := p0 + int(span)%(npix-p0+1)
		checkRangeMatchesSeries(t, rej, s, p0, p1)
	})
}

// TestIntegrateRangeZeroAlloc pins the plane kernel allocation-free at
// each lane stride's depth.
func TestIntegrateRangeZeroAlloc(t *testing.T) {
	rej, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{16, 32, 64} {
		cfg := synth.DefaultSceneConfig()
		cfg.Width, cfg.Height, cfg.Readouts = 32, 8, depth
		scene, err := synth.NewScene(cfg, rng.New(uint64(depth)))
		if err != nil {
			t.Fatal(err)
		}
		out := dataset.NewImage(cfg.Width, cfg.Height)
		var sc Scratch
		var stats Stats
		allocs := testing.AllocsPerRun(20, func() {
			rej.IntegrateRange(scene.Observed, 0, len(out.Pix), out, &sc, &stats)
		})
		if allocs != 0 {
			t.Fatalf("depth %d: IntegrateRange allocated %v times per run, want 0", depth, allocs)
		}
	}
}
