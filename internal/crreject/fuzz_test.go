package crreject

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"spaceproc/internal/dataset"
)

// The sort-based float64 integrators below are the reference the
// integer-exact ones must reproduce bit for bit: both medians of the
// readout differences taken by sorting float64 copies.

func sortMedian(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func sortMadSigma(diffs []float64) float64 {
	if len(diffs) == 0 {
		return 0
	}
	abs := append([]float64(nil), diffs...)
	med := sortMedian(abs)
	for i, v := range diffs {
		abs[i] = math.Abs(v - med)
	}
	return 1.4826 * sortMedian(abs)
}

func sortIntegrateSeries(cfg Config, ser dataset.Series) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	vals := make([]float64, n)
	for i, v := range ser {
		vals[i] = float64(v)
	}
	var diffs []float64
	for i := 1; i < n; i++ {
		diffs = append(diffs, vals[i]-vals[i-1])
	}
	sigma := sortMadSigma(diffs)
	if sigma < cfg.SigmaFloor {
		sigma = cfg.SigmaFloor
	}
	steps := 0
	var offset float64
	for i := 1; i < n; i++ {
		vals[i] -= offset
		d := vals[i] - vals[i-1]
		if math.Abs(d) > cfg.Threshold*sigma {
			offset += d
			vals[i] -= d
			steps++
		}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(n)
	if mean < 0 {
		mean = 0
	}
	if mean > 0xFFFF {
		mean = 0xFFFF
	}
	return uint16(mean + 0.5), steps
}

func sortIntegrateRampSeries(cfg Config, ser dataset.Series) (uint16, int) {
	n := len(ser)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return ser[0], 0
	}
	var diffs []float64
	for i := 1; i < n; i++ {
		diffs = append(diffs, float64(ser[i])-float64(ser[i-1]))
	}
	med := sortMedian(append([]float64(nil), diffs...))
	sigma := sortMadSigma(diffs)
	if sigma < cfg.SigmaFloor {
		sigma = cfg.SigmaFloor
	}
	var sum float64
	var kept, steps int
	for _, d := range diffs {
		if math.Abs(d-med) > cfg.Threshold*sigma {
			steps++
			continue
		}
		sum += d
		kept++
	}
	if kept == 0 {
		return clampCharge(float64(ser[n-1]) - float64(ser[0]) + float64(ser[0])), steps
	}
	rate := sum / float64(kept)
	total := float64(ser[0]) + rate*float64(n-1)
	return clampCharge(total), steps
}

// FuzzIntegrateSeries feeds arbitrary uint16 series and thresholds to both
// series integrators and requires the value and step count the sort-based
// float64 reference gives. shift narrows the readouts so small-noise
// series, whose MAD often falls under the floor, get explored as well as
// full-range ones.
func FuzzIntegrateSeries(f *testing.F) {
	le := func(vs ...uint16) []byte {
		b := make([]byte, 2*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	f.Add(le(1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007), uint8(0), 5.0, 2.0)
	f.Add(le(12000, 12000, 12000, 12000, 12000, 20000, 20000, 20000, 20000), uint8(0), 5.0, 2.0)
	f.Add(le(100, 200, 5300, 5400, 5500, 5600), uint8(0), 5.0, 2.0)
	f.Add(le(0, 65535, 0, 65535, 0), uint8(0), 3.0, 0.0)
	f.Add(le(65535, 0, 0, 65535), uint8(0), 1.0, 40.0)
	f.Add(le(7), uint8(0), 5.0, 2.0)
	f.Add(le(), uint8(0), 5.0, 2.0)
	f.Add([]byte("arbitrary readouts of any length, narrowed by shift"), uint8(12), 8.5, 0.5)
	f.Fuzz(func(t *testing.T, raw []byte, shift uint8, threshold, floor float64) {
		cfg := Config{Threshold: threshold, SigmaFloor: floor}
		r, err := New(cfg)
		if err != nil {
			return
		}
		ser := make(dataset.Series, min(len(raw)/2, 400))
		for i := range ser {
			ser[i] = binary.LittleEndian.Uint16(raw[2*i:]) >> (shift % 16)
		}
		var sc Scratch
		for _, c := range []struct {
			name string
			got  func(dataset.Series, *Scratch) (uint16, int)
			want func(Config, dataset.Series) (uint16, int)
		}{
			{"integrateSeries", r.integrateSeries, sortIntegrateSeries},
			{"integrateRampSeries", r.integrateRampSeries, sortIntegrateRampSeries},
		} {
			v, steps := c.got(ser, &sc)
			wv, wsteps := c.want(cfg, ser)
			if v != wv || steps != wsteps {
				t.Fatalf("%s(%v, %+v) = (%d, %d), sort reference (%d, %d)", c.name, ser, cfg, v, steps, wv, wsteps)
			}
		}
	})
}
