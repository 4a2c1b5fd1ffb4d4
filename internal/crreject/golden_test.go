package crreject

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// crGoldenDigest is the FNV-64a digest of every output pixel and Stats
// field TestCRIntegrateGolden produces, recorded with the sort-based
// float64 medians. It pins both integrators exactly: any change to the
// noise estimate, the step removal or the rounding has to reproduce this
// constant bit for bit.
const crGoldenDigest = 0x3149202153088e06

// goldenDepths mixes odd and even difference counts (depth-1) around the
// pipeline's 16 and 64 readouts, plus the one-readout pass-through.
var goldenDepths = []int{1, 2, 3, 4, 15, 16, 17, 63, 64, 65}

// goldenStacks returns the inputs of the golden test at one depth:
// stationary and ramp scenes with cosmic-ray hits, each also with bit
// flips at two upset rates, a constant stack whose MAD is zero (so the
// sigma floor decides), and a stack of random uint16 values whose
// differences reach +-65535.
func goldenStacks(t *testing.T, depth int) []*dataset.Stack {
	t.Helper()
	const w, h = 12, 10
	var stacks []*dataset.Stack
	for _, mode := range []synth.ReadoutMode{synth.Stationary, synth.Ramp} {
		cfg := synth.DefaultSceneConfig()
		cfg.Mode = mode
		cfg.Width, cfg.Height, cfg.Readouts = w, h, depth
		cfg.Stars = 3
		sc, err := synth.NewScene(cfg, rng.New(uint64(100*depth)+uint64(mode)))
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, sc.Observed)
		for i, g0 := range []float64{0.01, 0.2} {
			flipped := sc.Observed.Clone()
			fault.Uncorrelated{Gamma0: g0}.InjectStack(flipped, rng.New(uint64(1000*depth+10*int(mode)+i)))
			stacks = append(stacks, flipped)
		}
	}
	constant := dataset.NewStack(depth, w, h)
	random := dataset.NewStack(depth, w, h)
	r := rand.New(rand.NewSource(int64(depth)))
	for _, f := range constant.Frames {
		for j := range f.Pix {
			f.Pix[j] = uint16(j * 547)
		}
	}
	for _, f := range random.Frames {
		for j := range f.Pix {
			f.Pix[j] = uint16(r.Intn(1 << 16))
		}
	}
	return append(stacks, constant, random)
}

// TestCRIntegrateGolden runs Integrate and IntegrateRamp over every golden
// stack under the default and three non-default configurations, one with
// no sigma floor, and checks the digest of every output pixel and Stats
// counter against crGoldenDigest.
func TestCRIntegrateGolden(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{Threshold: 3, SigmaFloor: 0},
		{Threshold: 8.5, SigmaFloor: 0.5},
		{Threshold: 1, SigmaFloor: 40},
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	runs := 0
	for _, depth := range goldenDepths {
		for _, s := range goldenStacks(t, depth) {
			for _, cfg := range cfgs {
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, integrate := range []func(*dataset.Stack) (*dataset.Image, Stats){r.Integrate, r.IntegrateRamp} {
					img, st := integrate(s)
					for _, p := range img.Pix {
						put(uint64(p))
					}
					put(uint64(st.Hits))
					put(uint64(st.Steps))
					runs++
				}
			}
		}
	}
	if got := h.Sum64(); got != crGoldenDigest {
		t.Fatalf("crreject digest over %d runs = %#x, want %#x", runs, got, uint64(crGoldenDigest))
	}
}
