// Package crreject implements the onboard NGST application the
// preprocessing layer feeds: cosmic-ray rejection over the multiple
// non-destructive readouts of a baseline, producing the single integrated
// image that is Rice-compressed and downlinked (Figure 1; Stockman/Fixsen
// et al.'s CR-rejection algorithms [10-12]).
//
// A cosmic-ray hit deposits charge that persists in all subsequent
// readouts, so it appears as a step in the temporal series of the struck
// coordinate. The rejector detects steps against a robust (MAD-based)
// estimate of the readout noise, removes them, and integrates the repaired
// series. The estimate's two medians are taken over the integer readout
// differences, exact to the bit (see madSigma): for stacks of 2 to 64
// readouts as radix selects on bit planes, four pixels to a word at up to
// 16 readouts (planes.go), otherwise as int32 selections. IntegrateRange
// lets a worker integrate a tile range by range.
package crreject

import (
	"fmt"
	"math"
	"slices"

	"spaceproc/internal/dataset"
	"spaceproc/internal/orderstat"
)

// Config parameterizes the rejector.
type Config struct {
	// Threshold is the step-detection level in robust sigma units.
	Threshold float64
	// SigmaFloor is the minimum noise estimate in counts, guarding
	// against zero MAD on constant series.
	SigmaFloor float64
}

// DefaultConfig returns the rejection parameters used by the pipeline.
func DefaultConfig() Config {
	return Config{Threshold: 5, SigmaFloor: 2}
}

// Validate reports whether the configuration is usable. The checks are
// written so that NaN fails them; +Inf is legal for both fields and turns
// step removal off.
func (c Config) Validate() error {
	if !(c.Threshold > 0) {
		return fmt.Errorf("crreject: threshold must be positive, got %v", c.Threshold)
	}
	if !(c.SigmaFloor >= 0) {
		return fmt.Errorf("crreject: sigma floor must be non-negative, got %v", c.SigmaFloor)
	}
	return nil
}

// Stats summarizes one integration.
type Stats struct {
	// Hits is the number of pixels in which at least one cosmic-ray step
	// was detected and removed.
	Hits int
	// Steps is the total number of steps removed (a pixel can be struck
	// more than once per baseline).
	Steps int
}

// Add accumulates another integration's statistics into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Steps += other.Steps
}

// Rejector integrates baselines with cosmic-ray step removal.
type Rejector struct {
	cfg Config
}

// New validates cfg and returns a Rejector.
func New(cfg Config) (*Rejector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Rejector{cfg: cfg}, nil
}

// Scratch is the per-series workspace of integration: the readout buffer
// and the int32 readout differences the medians select over. The zero
// value is ready to use; it grows to the stack depth on first use, so a
// caller that keeps one per goroutine integrates without allocating.
type Scratch struct {
	ser        dataset.Series
	diffs, sel []int32
}

func (sc *Scratch) grow(n int) {
	if cap(sc.ser) < n {
		sc.ser = make(dataset.Series, n)
		sc.diffs = make([]int32, n)
		sc.sel = make([]int32, n)
	}
}

// seriesFunc integrates one temporal series, returning the value and the
// number of steps removed.
type seriesFunc func(*Rejector, dataset.Series, *Scratch) (uint16, int)

// Integrate collapses a baseline stack into one image, removing cosmic-ray
// steps per coordinate, and returns the image with rejection statistics.
// It is IntegrateRange over every pixel, so the pass allocates O(1)
// beyond the output image.
func (r *Rejector) Integrate(s *dataset.Stack) (*dataset.Image, Stats) {
	out := dataset.NewImage(s.Width(), s.Height())
	var stats Stats
	r.IntegrateRange(s, 0, len(out.Pix), out, new(Scratch), &stats)
	return out, stats
}

// IntegrateRange is Integrate over the flattened coordinate range
// [p0, p1) of s: it writes those pixels of out, which must match s's
// dimensions, and adds the range's statistics to stats. It reads and
// writes only pixels inside the range, so disjoint ranges of one stack
// run concurrently, each with its own Scratch and Stats, and the ranges'
// stats add up to Integrate's. Stacks of 2 to 64 readouts run on the
// bit-plane kernel (integratePlanes) and allocate nothing; a single
// readout and deeper stacks take the per-series pass.
func (r *Rejector) IntegrateRange(s *dataset.Stack, p0, p1 int, out *dataset.Image, sc *Scratch, stats *Stats) {
	if n := s.Len(); n >= 2 && n <= 64 {
		r.integratePlanes(s, p0, p1, out, stats)
		return
	}
	r.integrateRange(s, p0, p1, out, sc, stats, (*Rejector).integrateSeries)
}

// integrateRange runs f over the series of every coordinate in [p0, p1).
func (r *Rejector) integrateRange(s *dataset.Stack, p0, p1 int, out *dataset.Image, sc *Scratch, stats *Stats, f seriesFunc) {
	n := s.Len()
	sc.grow(n)
	ser := sc.ser[:n]
	for p := p0; p < p1; p++ {
		for i, fr := range s.Frames {
			ser[i] = fr.Pix[p]
		}
		v, steps := f(r, ser, sc)
		out.Pix[p] = v
		if steps > 0 {
			stats.Hits++
			stats.Steps += steps
		}
	}
}

// readoutDiffs fills sc with the len(ser)-1 >= 1 readout differences of
// ser, each an integer within +-65535, and returns them.
func (sc *Scratch) readoutDiffs(ser dataset.Series) []int32 {
	sc.grow(len(ser))
	d := sc.diffs[:len(ser)-1]
	for i := range d {
		d[i] = int32(ser[i+1]) - int32(ser[i])
	}
	return d
}

// integrateSeries removes detected steps from one temporal series and
// returns the integrated (mean) value plus the number of steps removed.
func (r *Rejector) integrateSeries(ser dataset.Series, sc *Scratch) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	diffs := sc.readoutDiffs(ser)
	sigma, _ := madSigma(diffs, sc.sel)
	limit := r.stepLimit(sigma)
	// Remove steps: subtract each detected jump from all later readouts.
	// That leaves every later difference as it was, so a difference is a
	// step exactly when its raw value exceeds the limit, and each
	// corrected readout is the first plus the kept differences before
	// it. Every value is an integer far below 2^53, so the int64 sum
	// converts to the float64 sum exactly.
	steps := 0
	v := int64(ser[0])
	sum := v
	for _, d := range diffs {
		if math.Abs(float64(d)) > limit {
			steps++
		} else {
			v += int64(d)
		}
		sum += v
	}
	return meanValue(sum, n), steps
}

// meanValue returns the integrated pixel of n readouts summing to sum:
// their mean, clamped to the pixel range and rounded half up.
func meanValue(sum int64, n int) uint16 {
	mean := float64(sum) / float64(n)
	if mean < 0 {
		mean = 0
	}
	if mean > 0xFFFF {
		mean = 0xFFFF
	}
	return uint16(mean + 0.5)
}

// stepLimit returns the step-detection level for a robust noise estimate
// sigma: Threshold sigmas, with sigma raised to the floor.
func (r *Rejector) stepLimit(sigma float64) float64 {
	if sigma < r.cfg.SigmaFloor {
		sigma = r.cfg.SigmaFloor
	}
	return r.cfg.Threshold * sigma
}

// stepBound returns the smallest difference magnitude the step test
// flags in a series whose doubled deviations have twice-median mad4 (four
// times the MAD), and false when it flags none. A difference is an
// integer, so |d| > limit exactly when |d| >= floor(limit)+1; a NaN
// limit, or one at or above the largest magnitude 65535, flags nothing.
func (r *Rejector) stepBound(mad4 uint32) (uint32, bool) {
	limit := r.stepLimit(madToSigma(int32(mad4)))
	switch {
	case !(limit < 0xFFFF):
		return 0, false
	case limit < 0:
		return 0, true
	}
	return uint32(limit) + 1, true
}

// IntegrateRamp collapses an up-the-ramp baseline (non-destructive
// accumulating readouts; synth.Ramp mode) into one image of total
// accumulated charge, removing cosmic-ray steps per coordinate. A cosmic
// ray appears as one anomalously large inter-readout difference; the
// estimator drops differences deviating from the per-series median rate by
// more than the threshold and scales the surviving mean rate back to the
// full baseline.
func (r *Rejector) IntegrateRamp(s *dataset.Stack) (*dataset.Image, Stats) {
	out := dataset.NewImage(s.Width(), s.Height())
	var stats Stats
	r.integrateRange(s, 0, len(out.Pix), out, new(Scratch), &stats, (*Rejector).integrateRampSeries)
	return out, stats
}

// integrateRampSeries estimates total accumulated charge for one ramp.
func (r *Rejector) integrateRampSeries(ser dataset.Series, sc *Scratch) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	diffs := sc.readoutDiffs(ser)
	sigma, med2 := madSigma(diffs, sc.sel)
	limit := r.stepLimit(sigma)
	var sum int64
	var kept, steps int
	for _, d := range diffs {
		// |2d - med2| / 2 is the deviation from the median rate, a
		// half-integer held exactly.
		if 0.5*float64(abs32(2*d-med2)) > limit {
			steps++
			continue
		}
		sum += int64(d)
		kept++
	}
	if kept == 0 {
		// Every difference rejected: fall back to the raw last readout
		// (the first plus the last-minus-first estimate).
		return ser[n-1], steps
	}
	rate := float64(sum) / float64(kept)
	// Total charge = first readout plus the rate across the remaining
	// n-1 intervals (the first readout already holds one interval).
	total := float64(ser[0]) + rate*float64(n-1)
	return clampCharge(total), steps
}

func clampCharge(v float64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v + 0.5)
}

// madSigma estimates the standard deviation of the readout differences d
// as 1.4826 * MAD, robust to the steps themselves, and also returns twice
// their median. Both medians are int32 selections in buf (grown as
// needed; d is left untouched) and exact: twice the median of integers is
// an integer, so is the doubled deviation |2d - med2| of every element,
// and twice the median of those is four times the MAD. The float64 MAD is
// therefore an exact quarter-integer, the value a float64 median of the
// sorted differences gives bit for bit. Every |d| <= 2^28 keeps the
// doubled values and their sums inside int32; readout differences stay
// within 2^16.
func madSigma(d, buf []int32) (sigma float64, med2 int32) {
	if len(d) == 0 {
		return 0, 0
	}
	buf = append(buf[:0], d...)
	med2 = twiceMedian(buf)
	for i, v := range d {
		buf[i] = abs32(2*v - med2)
	}
	return madToSigma(twiceMedian(buf)), med2
}

// madToSigma converts four times the MAD into the sigma estimate
// 1.4826 * MAD.
func madToSigma(mad4 int32) float64 {
	return 1.4826 * (float64(mad4) / 4)
}

// twiceMedian returns twice the median of v, the sum of its two middle
// order statistics (twice the middle one for odd lengths), reordering v.
func twiceMedian(v []int32) int32 {
	k := len(v) / 2
	hi := orderstat.Select(v, k)
	if len(v)%2 == 1 {
		return 2 * hi
	}
	return slices.Max(v[:k]) + hi
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
