package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"

	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
	"spaceproc/internal/physics"
	"spaceproc/internal/telemetry"
)

// CubePreprocessor repairs suspected bit flips in an OTIS radiance cube in
// place.
type CubePreprocessor interface {
	// Name identifies the algorithm in reports and experiment tables.
	Name() string
	// ProcessCube repairs c in place.
	ProcessCube(c *dataset.Cube)
}

// OTISLocality selects which redundancy dimension AlgoOTIS votes over.
type OTISLocality int

// Localities. The zero value is the paper's recommended spatial model
// ("the former yields better expediency to our approach than the latter,
// as spectral correlation falls drastically on either side of a band of
// wavelengths" — Section 7.1); spectral voting exists for the ablation
// that reproduces that comparison.
const (
	// SpatialLocality votes each sample against its 4-neighborhood in
	// the same band plane.
	SpatialLocality OTISLocality = iota
	// SpectralLocality votes each sample against the same coordinate in
	// neighboring wavelength bands.
	SpectralLocality
)

// String names the locality model.
func (l OTISLocality) String() string {
	switch l {
	case SpatialLocality:
		return "Spatial"
	case SpectralLocality:
		return "Spectral"
	default:
		return fmt.Sprintf("OTISLocality(%d)", int(l))
	}
}

// OTISConfig parameterizes AlgoOTIS.
type OTISConfig struct {
	// Sensitivity is Lambda in [0, 100], as for AlgoNGST.
	Sensitivity int
	// Wavelengths are the cube's band wavelengths in meters, used for the
	// Section 7.2 absolute physical bounds. If nil, bounds checking is
	// limited to finiteness and non-negativity.
	Wavelengths []float64
	// TrendGuard enables the Section 7.2 rule (1): a deviant pixel whose
	// neighborhood trends the same direction is a natural anomaly
	// (geyser, eruption) and must be preserved, not "corrected".
	TrendGuard bool
	// Locality selects spatial (default, recommended) or spectral voting.
	Locality OTISLocality
	// ScalarOnly pins the spectral vote to the scalar temporal kernel,
	// disabling its plane-major bit-sliced path (see
	// NGSTConfig.ScalarOnly). The spatial vote has only the scalar tile
	// kernel, so it is unaffected.
	ScalarOnly bool
}

// DefaultOTISConfig returns the configuration used in the paper's OTIS
// experiments: full bounds checking and trend preservation at the
// experimentally chosen sensitivity.
func DefaultOTISConfig(wavelengths []float64) OTISConfig {
	return OTISConfig{Sensitivity: 80, Wavelengths: wavelengths, TrendGuard: true}
}

// Validate reports whether the configuration is usable.
func (c OTISConfig) Validate() error {
	if c.Sensitivity < 0 || c.Sensitivity > 100 {
		return fmt.Errorf("core: sensitivity %d outside [0,100]", c.Sensitivity)
	}
	if c.Locality != SpatialLocality && c.Locality != SpectralLocality {
		return fmt.Errorf("core: unknown locality %d", int(c.Locality))
	}
	for i, w := range c.Wavelengths {
		if w <= 0 {
			return fmt.Errorf("core: wavelength %d is non-positive", i)
		}
	}
	return nil
}

// AlgoOTIS is the Section 7 adaptation of the dynamic voter algorithm to
// OTIS radiance cubes: spatial (4-neighborhood) bit-plane voting over the
// IEEE-754 representations, preceded by absolute physical-bounds repair and
// guarded by natural-trend preservation. Spatial locality is used rather
// than spectral because the paper found "spectral correlation falls
// drastically on either side of a band of wavelengths".
type AlgoOTIS struct {
	cfg OTISConfig
	tel *cubeCounters
	log *slog.Logger
}

// cubeCounters is the registry view of CubeStats, resolved once by
// Instrument.
type cubeCounters struct {
	boundsRepairs  *telemetry.Counter
	voted          *telemetry.Counter
	trendPreserved *telemetry.Counter
}

func newCubeCounters(reg *telemetry.Registry) *cubeCounters {
	return &cubeCounters{
		boundsRepairs:  reg.Counter("preprocess_bounds_repairs_total"),
		voted:          reg.Counter("preprocess_voted_total"),
		trendPreserved: reg.Counter("preprocess_trend_preserved_total"),
	}
}

func (c *cubeCounters) add(s CubeStats) {
	c.boundsRepairs.Add(int64(s.BoundsRepairs))
	c.voted.Add(int64(s.Voted))
	c.trendPreserved.Add(int64(s.TrendPreserved))
}

// Instrument feeds the algorithm's correction counters into reg on every
// pass (see AlgoNGST.Instrument). A nil registry detaches it.
func (a *AlgoOTIS) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		a.tel = nil
		return
	}
	a.tel = newCubeCounters(reg)
}

// Forensics routes per-cube correction events into l at WARN: one record
// per processed cube that needed repair, with bounds repairs, voter
// corrections and trend preservations broken out (see AlgoNGST.Forensics
// for the ground-truth framing). A nil logger detaches it.
func (a *AlgoOTIS) Forensics(l *slog.Logger) { a.log = l }

var _ CubePreprocessor = (*AlgoOTIS)(nil)

// NewAlgoOTIS validates cfg and returns the algorithm.
func NewAlgoOTIS(cfg OTISConfig) (*AlgoOTIS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AlgoOTIS{cfg: cfg}, nil
}

// Name implements CubePreprocessor.
func (a *AlgoOTIS) Name() string {
	return fmt.Sprintf("Algo_OTIS(L=%d)", a.cfg.Sensitivity)
}

// CubeStats counts what a cube preprocessing pass did.
type CubeStats struct {
	// BoundsRepairs counts samples replaced by the physical-bounds rule.
	BoundsRepairs int
	// Voted counts samples repaired by the voter pass.
	Voted int
	// TrendPreserved counts candidate corrections skipped as natural
	// trends (Section 7.2 rule 1).
	TrendPreserved int
}

// Add merges other into s.
func (s *CubeStats) Add(other CubeStats) {
	s.BoundsRepairs += other.BoundsRepairs
	s.Voted += other.Voted
	s.TrendPreserved += other.TrendPreserved
}

// CubeScratch holds the buffers of one cube preprocessing pass, reused
// across every band plane (and across cubes, when the caller keeps it
// warm): the bit-pattern views, XOR way sets, deviation map and the
// temporal voter scratch of the spectral path. Not safe for concurrent
// use; the zero value is ready.
type CubeScratch struct {
	// bits and out are the plane's IEEE-754 bit patterns (input and
	// voted output).
	bits, out []uint32
	// hx and vx are the horizontal and vertical XOR way sets.
	hx, vx []uint32
	// blockBuf collects one vote tile's XOR values for thresholding.
	blockBuf []uint32
	// devs is the per-pixel neighbor-deviation map of the trend guard;
	// absBuf is the workspace of its median-absolute-deviation scale.
	devs, absBuf []float64
	// vote is the temporal voter scratch of the spectral-locality path
	// (also supplies the threshold sort buffer for the spatial path).
	vote VoteScratch
}

// NewCubeScratch returns an empty scratch, for callers outside the
// package.
func NewCubeScratch() *CubeScratch { return new(CubeScratch) }

// ProcessCube implements CubePreprocessor. It allocates a fresh scratch
// per cube (reused across the cube's bands); repeated passes should hold a
// CubeScratch and call ProcessCubeScratch.
func (a *AlgoOTIS) ProcessCube(c *dataset.Cube) {
	a.ProcessCubeScratch(c, nil, nil)
}

// ProcessCubeScratch is ProcessCube against caller-owned scratch, with
// observability. sc may be nil (a fresh scratch is used); stats, when
// non-nil, accumulates the pass's counters. The caller owns stats,
// keeping the algorithm value safe for concurrent use.
func (a *AlgoOTIS) ProcessCubeScratch(c *dataset.Cube, sc *CubeScratch, stats *CubeStats) {
	if sc == nil {
		sc = new(CubeScratch)
	}
	collect := stats
	var local CubeStats
	if a.tel != nil || a.log != nil {
		collect = &local
	}
	a.processCubeStats(c, sc, collect)
	if collect == &local {
		if a.tel != nil {
			a.tel.add(local)
		}
		if a.log != nil && local.BoundsRepairs+local.Voted > 0 {
			a.log.LogAttrs(context.Background(), slog.LevelWarn, "cube corrected",
				slog.String("stage", "preprocess"),
				slog.String("algo", a.Name()),
				slog.Int("bounds_repairs", local.BoundsRepairs),
				slog.Int("voted", local.Voted),
				slog.Int("trend_preserved", local.TrendPreserved))
		}
		if stats != nil {
			stats.Add(local)
		}
	}
}

func (a *AlgoOTIS) processCubeStats(c *dataset.Cube, sc *CubeScratch, stats *CubeStats) {
	for b := 0; b < c.Bands; b++ {
		lo, hi := a.bandBounds(b)
		plane := c.Band(b)
		n := repairOutOfBounds(plane, c.Width, c.Height, lo, hi)
		if stats != nil {
			stats.BoundsRepairs += n
		}
		if a.cfg.Sensitivity > 0 && a.cfg.Locality == SpatialLocality {
			a.votePlane(plane, c.Width, c.Height, lo, hi, sc, stats)
		}
	}
	if a.cfg.Sensitivity > 0 && a.cfg.Locality == SpectralLocality {
		a.voteSpectral(c, sc)
	}
}

// voteSpectral runs the temporal voter engine over each coordinate's
// across-band series (the Section 7.1 spectral locality model). Samples
// the vote drives outside the band's physical range fall back to the
// spectral neighbor median.
func (a *AlgoOTIS) voteSpectral(c *dataset.Cube, sc *CubeScratch) {
	if c.Bands < 3 {
		return
	}
	plane := c.Width * c.Height
	sc.vote.vals = growU32(sc.vote.vals, c.Bands)
	vals := sc.vote.vals
	for i := 0; i < plane; i++ {
		for b := 0; b < c.Bands; b++ {
			vals[b] = math.Float32bits(c.Band(b)[i])
		}
		corr := correctTemporalAuto(&sc.vote, vals, 4, a.cfg.Sensitivity, 32, voteOptions{}, a.cfg.ScalarOnly)
		for b := 0; b < c.Bands; b++ {
			if corr[b] == 0 {
				continue
			}
			fixed := math.Float32frombits(vals[b] ^ corr[b])
			lo, hi := a.bandBounds(b)
			f := float64(fixed)
			if math.IsNaN(f) || math.IsInf(f, 0) || f < lo || f > hi {
				fixed = spectralNeighborMedian(c, i, b)
			}
			c.Band(b)[i] = fixed
		}
	}
}

// spectralNeighborMedian returns the median of the adjacent bands' values
// at the same coordinate.
func spectralNeighborMedian(c *dataset.Cube, i, b int) float32 {
	var buf [4]float32
	vals := buf[:0]
	for _, nb := range [4]int{b - 2, b - 1, b + 1, b + 2} {
		if nb < 0 || nb >= c.Bands {
			continue
		}
		vals = append(vals, c.Band(nb)[i])
	}
	return medianF32(vals, c.Band(b)[i])
}

// bandBounds returns the legal radiance interval for band b. The lower
// bound is zero (emissivity below one depresses radiance arbitrarily far
// below the black-body floor); the upper bound is the black-body radiance
// at the hottest physical scene temperature.
func (a *AlgoOTIS) bandBounds(b int) (lo, hi float64) {
	if b >= len(a.cfg.Wavelengths) {
		return 0, math.MaxFloat32
	}
	_, hi = physics.RadianceBounds(a.cfg.Wavelengths[b])
	return 0, hi
}

// repairOutOfBounds implements Section 7.2 rule (2): any theoretically
// out-of-bounds value is a fault, repaired from the median of its in-bounds
// neighbors. It returns the number of repairs.
func repairOutOfBounds(plane []float32, w, h int, lo, hi float64) int {
	inBounds := func(v float32) bool {
		f := float64(v)
		return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= lo && f <= hi
	}
	repairs := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if inBounds(plane[y*w+x]) {
				continue
			}
			repairs++
			var goodBuf [4]float32
			good := goodBuf[:0]
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				if v := plane[ny*w+nx]; inBounds(v) {
					good = append(good, v)
				}
			}
			plane[y*w+x] = medianF32(good, float32(lo))
		}
	}
	return repairs
}

// voteTile is the block size over which thresholds adapt: the dynamic
// pre-analysis of Section 3.3 "sets tighter bounds for regions in the
// datasets that show little variation over space and time, as compared to
// very turbulent regions", so each voteTile x voteTile block derives its
// own per-way cut-offs (the Stripe dataset, calm except for a turbulent
// central band, is the case this exists for). Eight pixels keeps a block
// small enough that a narrow turbulent band raises its own blocks'
// thresholds instead of being judged by the calm majority of a wider block,
// while still giving each way ~56 XOR samples for its order statistic.
const voteTile = 8

// votePlane runs the spatial voter pass over one band plane. Every buffer
// comes from sc, so the per-band (and per-cube, with a warm scratch)
// allocation cost is amortized away.
func (a *AlgoOTIS) votePlane(plane []float32, w, h int, lo, hi float64, sc *CubeScratch, stats *CubeStats) {
	if w < 3 || h < 3 {
		return
	}
	sc.bits = growU32(sc.bits, len(plane))
	bits := sc.bits
	for i, v := range plane {
		bits[i] = math.Float32bits(v)
	}

	// Two ways: horizontal pairs and vertical pairs, thresholded
	// separately (turbulence is often anisotropic).
	sc.hx = growU32(sc.hx, (w-1)*h)
	hx := sc.hx
	for y := 0; y < h; y++ {
		for x := 0; x < w-1; x++ {
			hx[y*(w-1)+x] = bits[y*w+x] ^ bits[y*w+x+1]
		}
	}
	sc.vx = growU32(sc.vx, w*(h-1))
	vx := sc.vx
	for y := 0; y < h-1; y++ {
		for x := 0; x < w; x++ {
			vx[y*w+x] = bits[y*w+x] ^ bits[(y+1)*w+x]
		}
	}

	var devs []float64
	var tau float64
	if a.cfg.TrendGuard {
		sc.devs = growF64(sc.devs, len(plane))
		devs = sc.devs
		neighborDeviations(devs, plane, w, h)
		tau = 3 * medianAbs(devs, sc)
	}

	sc.out = growU32(sc.out, len(bits))
	out := sc.out
	copy(out, bits)
	sv := spatialVote{
		plane: plane, bits: bits, out: out, hx: hx, vx: vx,
		devs: devs, w: w, h: h, lo: lo, hi: hi, tau: tau, stats: stats,
	}
	scratch := sc.blockBuf[:0]
	for ty := 0; ty < h; ty += voteTile {
		for tx := 0; tx < w; tx += voteTile {
			x1, y1 := tx+voteTile, ty+voteTile
			if x1 > w {
				x1 = w
			}
			if y1 > h {
				y1 = h
			}
			// Per-block thresholds from the XOR pairs inside the block.
			scratch = scratch[:0]
			for y := ty; y < y1; y++ {
				for x := tx; x < x1-1; x++ {
					scratch = append(scratch, hx[y*(w-1)+x])
				}
			}
			vvalH := wayThresholdBuf(scratch, a.cfg.Sensitivity, PruneIndex, &sc.vote)
			scratch = scratch[:0]
			for y := ty; y < y1-1; y++ {
				for x := tx; x < x1; x++ {
					scratch = append(scratch, vx[y*w+x])
				}
			}
			vvalV := wayThresholdBuf(scratch, a.cfg.Sensitivity, PruneIndex, &sc.vote)
			vvalsBuf := [2]uint32{vvalH, vvalV}
			lsbMask, msbMask := windowMasks(vvalsBuf[:], 32)
			a.voteTileScalar(&sv, tx, ty, x1, y1, vvalH, vvalV, lsbMask, msbMask)
		}
	}
	sc.blockBuf = scratch[:0]
	for i := range plane {
		plane[i] = math.Float32frombits(out[i])
	}
}

// spatialVote bundles one band plane's spatial voter state for the tile
// kernel and its candidate finalization.
type spatialVote struct {
	plane     []float32
	bits, out []uint32
	hx, vx    []uint32
	devs      []float64
	w, h      int
	lo, hi    float64
	tau       float64
	stats     *CubeStats
}

// voteTileScalar is the spatial vote over one threshold tile. A plane-major
// variant (tile pixels as lanes, the four voter sets transposed to bit
// planes) measured slower than this loop on every OTIS geometry, so the
// scalar kernel is the only one.
func (a *AlgoOTIS) voteTileScalar(sv *spatialVote, tx, ty, x1, y1 int, vvalH, vvalV, lsbMask, msbMask uint32) {
	w, h := sv.w, sv.h
	var phisBuf [4]uint32
	phis := phisBuf[:0]
	for y := ty; y < y1; y++ {
		for x := tx; x < x1; x++ {
			phis = phis[:0]
			if x > 0 {
				phis = append(phis, pruned(sv.hx[y*(w-1)+x-1], vvalH))
			}
			if x < w-1 {
				phis = append(phis, pruned(sv.hx[y*(w-1)+x], vvalH))
			}
			if y > 0 {
				phis = append(phis, pruned(sv.vx[(y-1)*w+x], vvalV))
			}
			if y < h-1 {
				phis = append(phis, pruned(sv.vx[y*w+x], vvalV))
			}
			if len(phis) < 2 {
				continue
			}
			unanimous := bitutil.ANDAll(phis)
			quorum := bitutil.LeaveOneOutAND(phis)
			corr := (unanimous | (quorum & msbMask)) & lsbMask
			if corr == 0 {
				continue
			}
			a.applySpatial(sv, x, y, corr)
		}
	}
}

// applySpatial finalizes one candidate correction: the Section 7.2
// natural-trend guard, physical-bounds fallback and value-space
// acceptance.
func (a *AlgoOTIS) applySpatial(sv *spatialVote, x, y int, corr uint32) {
	w, h := sv.w, sv.h
	i := y*w + x
	if a.cfg.TrendGuard && isNaturalTrend(sv.devs, w, h, x, y, sv.tau) {
		if sv.stats != nil {
			sv.stats.TrendPreserved++
		}
		return
	}
	fixed := math.Float32frombits(sv.bits[i] ^ corr)
	f := float64(fixed)
	if math.IsNaN(f) || math.IsInf(f, 0) || f < sv.lo || f > sv.hi {
		// The voted pattern is itself unphysical; fall back to the
		// neighborhood median.
		fixed = neighborMedian(sv.plane, w, h, x, y)
		f = float64(fixed)
	}
	// Value-space acceptance, as in the temporal engine: a genuine repair
	// moves the sample toward its neighborhood by about the correction's
	// magnitude.
	med := float64(neighborMedian(sv.plane, w, h, x, y))
	before := math.Abs(float64(sv.plane[i]) - med)
	after := math.Abs(f - med)
	if after > before {
		return
	}
	sv.out[i] = math.Float32bits(fixed)
	if sv.stats != nil {
		sv.stats.Voted++
	}
}

// neighborDeviations fills devs with, for every pixel, its value minus
// the median of its in-plane 4-neighbors. devs must be len(plane) long.
func neighborDeviations(devs []float64, plane []float32, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			devs[y*w+x] = float64(plane[y*w+x] - neighborMedian(plane, w, h, x, y))
		}
	}
}

// isNaturalTrend implements Section 7.2 rule (1): the deviation at (x,y) is
// natural — and must be preserved — when at least two 4-neighbors deviate
// in the same direction with *comparable* magnitude. "A natural thermal
// phenomenon that does not have any effect on the temperature in its
// immediate vicinity is thermodynamically impossible." The magnitude
// requirement matters: on a gentle undulation slope all neighbors share the
// gradient's sign, but their deviations are orders of magnitude below a
// bit-flip's — sign agreement alone would shield almost every fault.
func isNaturalTrend(devs []float64, w, h, x, y int, tau float64) bool {
	d := devs[y*w+x]
	if math.Abs(d) <= tau || tau == 0 {
		return false
	}
	floor := math.Abs(d) / 8
	if half := tau / 2; half > floor {
		floor = half
	}
	same := 0
	for _, off := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= w || ny < 0 || ny >= h {
			continue
		}
		nd := devs[ny*w+nx]
		if math.Abs(nd) > floor && (nd > 0) == (d > 0) {
			same++
		}
	}
	return same >= 2
}

// neighborMedian returns the median of the in-plane 4-neighbors of (x,y).
// The candidate buffer is a fixed-size array, so the per-pixel call (it
// runs for every pixel of every band in the trend-guard pre-pass) stays
// off the heap.
func neighborMedian(plane []float32, w, h, x, y int) float32 {
	var buf [4]float32
	vals := buf[:0]
	for _, off := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nx, ny := x+off[0], y+off[1]
		if nx < 0 || nx >= w || ny < 0 || ny >= h {
			continue
		}
		vals = append(vals, plane[ny*w+nx])
	}
	return medianF32(vals, plane[y*w+x])
}

// medianF32 returns the lower median of vals (reordered in place), or
// fallback when vals is empty. Insertion sort: callers pass at most a
// handful of neighbor values, and the closure-free sort keeps the
// per-pixel paths allocation-free. Values are NaN-free by construction
// (callers run after the bounds repair).
func medianF32(vals []float32, fallback float32) float32 {
	if len(vals) == 0 {
		return fallback
	}
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
	return vals[(len(vals)-1)/2]
}

// medianAbs returns the median of |vals|, using sc's workspace.
func medianAbs(vals []float64, sc *CubeScratch) float64 {
	if len(vals) == 0 {
		return 0
	}
	sc.absBuf = growF64(sc.absBuf, len(vals))
	abs := sc.absBuf
	for i, v := range vals {
		abs[i] = math.Abs(v)
	}
	slices.Sort(abs)
	return abs[(len(abs)-1)/2]
}
