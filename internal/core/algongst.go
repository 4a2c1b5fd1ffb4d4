package core

import (
	"context"
	"fmt"
	"log/slog"

	"spaceproc/internal/dataset"
	"spaceproc/internal/telemetry"
)

// SeriesPreprocessor repairs suspected bit flips in the temporal pixel
// series of a baseline stack in place. It is the one stack contract:
// AlgoNGST, Median3 and MajorityBit3 implement it, and ProcessStackWith,
// the cluster workers and the serve tier all drive it through
// ProcessStackPlanes.
type SeriesPreprocessor interface {
	// Name identifies the algorithm in reports and experiment tables.
	Name() string
	// ProcessSeries repairs one series in place.
	ProcessSeries(s dataset.Series)
	// ProcessStackPlanes repairs the flattened coordinate range [p0, p1)
	// of s in place. It reads and writes only pixels inside the range, so
	// disjoint ranges may be processed concurrently on a shared stack.
	// Which kernel runs (plane-major or scalar) is the algorithm's private
	// choice. sc may be nil; stats, when non-nil, accumulates the pass's
	// counters.
	ProcessStackPlanes(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats)
}

// PlanePreprocessor is SeriesPreprocessor under the name that wrappers of
// the ProcessStackPlanes range kernel use.
type PlanePreprocessor = SeriesPreprocessor

// NGSTConfig parameterizes AlgoNGST.
type NGSTConfig struct {
	// Upsilon is the number of neighbors each pixel consults (Upsilon/2
	// forward and Upsilon/2 backward); it must be even and >= 2. The
	// paper finds 4 best for the NGST and OTIS benchmarks.
	Upsilon int
	// Sensitivity is Lambda in [0, 100]. At 0 the pixel pass is skipped
	// entirely (only the FITS header sanity analysis runs, at the file
	// layer); higher values admit more voters, identifying more flips at
	// the cost of more false alarms and more computation.
	Sensitivity int

	// The remaining fields are ablation switches for the design-choice
	// experiments of DESIGN.md section 6; the zero values select the
	// paper-faithful algorithm.

	// DisableQuorum turns off the GRT auxiliary vote in window A
	// (unanimous voting everywhere).
	DisableQuorum bool
	// DisableCarryGuard turns off the carry-propagation acceptance test
	// (DESIGN.md #4.8).
	DisableCarryGuard bool
	// LiteralPhi uses the prune-index formula exactly as printed in the
	// paper, decreasing in Lambda (DESIGN.md #4.2).
	LiteralPhi bool
	// StaticWindows replaces the dynamic bit-window masks with fixed
	// boundaries: window C = bits < StaticLSB, window A = bits >=
	// StaticMSB.
	StaticWindows bool
	// StaticLSB and StaticMSB are the fixed boundaries used when
	// StaticWindows is set.
	StaticLSB, StaticMSB int

	// ScalarOnly pins the pass to the scalar (value-at-a-time) kernel,
	// disabling the plane-major bit-sliced path. The two are bit-identical
	// (enforced by differential fuzzing); this switch exists for layout
	// experiments, for the differential oracle itself, and as an escape
	// hatch.
	ScalarOnly bool
}

// DefaultNGSTConfig returns the paper's experimentally optimal parameters.
func DefaultNGSTConfig() NGSTConfig {
	return NGSTConfig{Upsilon: 4, Sensitivity: 80}
}

// Validate reports whether the configuration is usable.
func (c NGSTConfig) Validate() error {
	switch {
	case c.Upsilon < 2 || c.Upsilon%2 != 0:
		return fmt.Errorf("core: Upsilon must be even and >= 2, got %d", c.Upsilon)
	case c.Sensitivity < 0 || c.Sensitivity > 100:
		return fmt.Errorf("core: sensitivity %d outside [0,100]", c.Sensitivity)
	case c.StaticWindows && (c.StaticLSB < 0 || c.StaticMSB < c.StaticLSB || c.StaticMSB > 16):
		return fmt.Errorf("core: static windows [%d,%d] not ordered within a 16-bit word",
			c.StaticLSB, c.StaticMSB)
	}
	return nil
}

// AlgoNGST is the paper's Algorithm 1: dynamic bit-window voter
// preprocessing for temporally redundant 16-bit pixel series.
type AlgoNGST struct {
	cfg NGSTConfig
	tel *voteCounters
	log *slog.Logger
}

// voteCounters is the registry view of VoteStats: resolved once by
// Instrument so the per-series path pays only atomic adds.
type voteCounters struct {
	series        *telemetry.Counter
	corrected     *telemetry.Counter
	bitsWindowA   *telemetry.Counter
	bitsWindowB   *telemetry.Counter
	guardRejected *telemetry.Counter
	windowCBit    *telemetry.Gauge
}

func newVoteCounters(reg *telemetry.Registry) *voteCounters {
	return &voteCounters{
		series:        reg.Counter("preprocess_series_total"),
		corrected:     reg.Counter("preprocess_corrected_total"),
		bitsWindowA:   reg.Counter("preprocess_bits_window_a_total"),
		bitsWindowB:   reg.Counter("preprocess_bits_window_b_total"),
		guardRejected: reg.Counter("preprocess_guard_rejected_total"),
		windowCBit:    reg.Gauge("preprocess_window_c_bit"),
	}
}

func (c *voteCounters) add(s VoteStats) {
	c.series.Add(int64(s.Series))
	c.corrected.Add(int64(s.Corrected))
	c.bitsWindowA.Add(int64(s.BitsWindowA))
	c.bitsWindowB.Add(int64(s.BitsWindowB))
	c.guardRejected.Add(int64(s.GuardRejected))
	c.windowCBit.Set(float64(s.WindowCBit))
}

var _ SeriesPreprocessor = (*AlgoNGST)(nil)

// NewAlgoNGST validates cfg and returns the algorithm.
func NewAlgoNGST(cfg NGSTConfig) (*AlgoNGST, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AlgoNGST{cfg: cfg}, nil
}

// Name implements SeriesPreprocessor.
func (a *AlgoNGST) Name() string {
	return fmt.Sprintf("Algo_NGST(Y=%d,L=%d)", a.cfg.Upsilon, a.cfg.Sensitivity)
}

// Config returns the algorithm's configuration.
func (a *AlgoNGST) Config() NGSTConfig { return a.cfg }

// Instrument feeds the algorithm's correction counters
// (preprocess_*_total) into reg on every pass, alongside whatever
// VoteStats collector the caller supplies. A nil registry detaches the
// instrumentation. Call before sharing the value across workers.
func (a *AlgoNGST) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		a.tel = nil
		return
	}
	a.tel = newVoteCounters(reg)
}

// Forensics routes per-series correction events into l at WARN: one record
// per repaired series with the corrected bits broken down by window (A:
// MSBs repaired by unanimous/quorum vote, B: mid bits, C boundary). Meant
// for harnesses that hold ground truth (a fault-free reference run) and
// can therefore audit each event; it is chatty at high fault rates, so
// leave it nil in production sweeps. A nil logger detaches it. Call before
// sharing the value across workers.
func (a *AlgoNGST) Forensics(l *slog.Logger) { a.log = l }

// ProcessSeries implements SeriesPreprocessor: it identifies temporally
// non-conforming bits by Upsilon-way XOR voting with dynamic per-way
// thresholds and repairs them in place. It allocates a fresh scratch per
// call; hot loops should hold a VoteScratch and call ProcessSeriesScratch.
func (a *AlgoNGST) ProcessSeries(s dataset.Series) {
	a.ProcessSeriesScratch(s, nil, nil)
}

// ProcessSeriesScratch is the voter pass over one series against
// caller-owned scratch. With a warm scratch the steady-state pass
// performs zero heap allocations (enforced by TestProcessSeriesScratchZeroAlloc);
// the forensics logger is the one exception, allocating its WARN record
// for each repaired series. sc may be nil (a fresh scratch is used);
// stats, when non-nil, accumulates the pass's counters. The caller owns
// stats, so a single AlgoNGST value stays safe for concurrent use by
// workers that each pass their own collector.
func (a *AlgoNGST) ProcessSeriesScratch(s dataset.Series, sc *VoteScratch, stats *VoteStats) {
	if a.cfg.Sensitivity == 0 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	sc.vals = growU32(sc.vals, len(s))
	vals := sc.vals
	for i, v := range s {
		vals[i] = uint32(v)
	}
	// When instrumented, collect into the scratch's staging VoteStats and
	// fan out to both the caller's collector and the registry counters;
	// otherwise the caller's pointer is used directly (zero extra cost).
	collect := stats
	if a.tel != nil || a.log != nil {
		sc.stats = VoteStats{}
		collect = &sc.stats
	}
	opt := a.cfg.voteOptions(collect)
	corr := correctTemporalAuto(sc, vals, a.cfg.Upsilon, a.cfg.Sensitivity, 16, opt, a.cfg.ScalarOnly)
	for i := range s {
		s[i] ^= uint16(corr[i])
	}
	if collect == &sc.stats {
		a.finishSeries(sc.stats, stats)
	}
}

// logSeriesCorrected emits the forensics WARN record for one repaired
// series.
func (a *AlgoNGST) logSeriesCorrected(local VoteStats) {
	a.log.LogAttrs(context.Background(), slog.LevelWarn, "series corrected",
		slog.String("stage", "preprocess"),
		slog.String("algo", a.Name()),
		slog.Int("corrected_pixels", local.Corrected),
		slog.Int("window_a_bits", local.BitsWindowA),
		slog.Int("window_b_bits", local.BitsWindowB),
		slog.Int("window_c_bit", local.WindowCBit),
		slog.Int("guard_rejected", local.GuardRejected))
}

// ProcessStackWith runs a series preprocessor over every coordinate of a
// stack in place: one ProcessStackPlanes pass over the whole pixel range
// through one fresh scratch, so the pass allocates O(1) instead of
// O(width*height).
func ProcessStackWith(p SeriesPreprocessor, s *dataset.Stack) {
	p.ProcessStackPlanes(s, 0, s.Width()*s.Height(), new(VoteScratch), nil)
}

// clampRange clips [p0, p1) to the flattened pixel range of s.
func clampRange(s *dataset.Stack, p0, p1 int) (int, int) {
	return max(p0, 0), min(p1, s.Width()*s.Height())
}
