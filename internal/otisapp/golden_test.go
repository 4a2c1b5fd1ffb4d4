package otisapp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"spaceproc/internal/dataset"
	"spaceproc/internal/fault"
	"spaceproc/internal/physics"
	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// retrievalGoldenDigest is the FNV-64a digest of every Temps and Emissivity
// bit TestRetrievalGolden produces. It was taken from the sequential
// per-pixel loop. The retrieval has no second implementation to diff
// against, and perfbench's reference calls the same Process, so any change
// to how Process computes or splits its work has to reproduce this
// constant bit for bit.
const retrievalGoldenDigest = 0x5eee6eb438a6056b

// retrievalCase is one golden input: a radiance cube and the retrieval
// configuration it runs under.
type retrievalCase struct {
	name string
	cube *dataset.Cube
	cfg  Config
}

// retrievalCases returns the golden inputs: the three synthetic
// morphologies at 1, 3 and 8 bands, clean and damaged; cubes salted with
// NaN, ±Inf, signed zeros, negative, subnormal and huge samples; and odd
// geometries from one row or one column up to more rows than any fan-out
// has workers.
func retrievalCases(t *testing.T) []retrievalCase {
	t.Helper()
	var cases []retrievalCase
	scene := func(kind synth.OTISKind, w, h, bands int, seed uint64) *synth.OTISScene {
		cfg := synth.DefaultOTISConfig(kind)
		cfg.Width, cfg.Height, cfg.Bands = w, h, bands
		sc, err := synth.NewOTISScene(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	add := func(name string, c *dataset.Cube, eps float64) {
		cases = append(cases, retrievalCase{name, c, Config{Wavelengths: physics.ThermalBands(c.Bands), AssumedEmissivity: eps}})
	}
	for _, kind := range []synth.OTISKind{synth.Blob, synth.Stripe, synth.Spots} {
		for _, bands := range []int{1, 3, 8} {
			sc := scene(kind, 24, 19, bands, uint64(10*int(kind)+bands))
			add(kind.String()+"/clean", sc.Cube, 0.96)
			damaged := sc.Cube.Clone()
			fault.Uncorrelated{Gamma0: 0.01}.InjectCube(damaged, rng.New(uint64(100*int(kind)+bands)))
			add(kind.String()+"/damaged", damaged, 0.96)
		}
	}

	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, math.Float32frombits(1 << 31), -1, -3e4,
		math.SmallestNonzeroFloat32, math.MaxFloat32, 1e-30,
	}
	src := rng.New(77)
	for _, bands := range []int{1, 8} {
		c := scene(synth.Spots, 16, 12, bands, 40).Cube.Clone()
		for i := range c.Data {
			if src.Intn(6) == 0 {
				c.Data[i] = specials[src.Intn(len(specials))]
			}
		}
		add("specials", c, 0.96)
		add("specials/eps1", c, 1)
	}
	// One pixel whose every band is non-finite or non-positive, so no band
	// yields a temperature.
	dead := dataset.NewCube(2, 1, 4)
	for b := 0; b < 4; b++ {
		dead.Band(b)[0] = specials[b]
	}
	add("dead", dead, 0.9)

	for _, g := range []struct{ w, h, bands int }{
		{17, 1, 8}, {1, 11, 3}, {3, 5, 8}, {3, 5, 1}, {1, 1, 2}, {7, 40, 8}, {64, 64, 8},
	} {
		sc := scene(synth.Stripe, g.w, g.h, g.bands, uint64(g.w*g.h+g.bands))
		damaged := sc.Cube.Clone()
		fault.Uncorrelated{Gamma0: 0.02}.InjectCube(damaged, rng.New(uint64(g.h)))
		add("geometry", damaged, 0.96)
	}
	return cases
}

// TestRetrievalGolden runs Process over every retrievalCases input and
// checks the digest of every Temps and Emissivity bit against
// retrievalGoldenDigest.
func TestRetrievalGolden(t *testing.T) {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	cases := retrievalCases(t)
	for _, tc := range cases {
		r, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Process(tc.cube)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		put(uint64(len(out.Temps)))
		for _, v := range out.Temps {
			put(math.Float64bits(v))
		}
		for _, v := range out.Emissivity.Data {
			put(uint64(math.Float32bits(v)))
		}
	}
	if got := h.Sum64(); got != retrievalGoldenDigest {
		t.Fatalf("retrieval digest over %d cubes = %#x, want %#x", len(cases), got, uint64(retrievalGoldenDigest))
	}
}

// TestRowFanOutMatchesSequential retrieves every retrievalCases input with
// 1 to 9 row workers and requires the Temps and Emissivity bits of the
// one-worker pass.
func TestRowFanOutMatchesSequential(t *testing.T) {
	for _, tc := range retrievalCases(t) {
		r, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.process(tc.cube, 1)
		if err != nil {
			t.Fatal(err)
		}
		for workers := 2; workers <= 9; workers++ {
			got, err := r.process(tc.cube, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Temps {
				if math.Float64bits(v) != math.Float64bits(want.Temps[i]) {
					t.Fatalf("%s %dx%dx%d, %d workers: temperature %d = %v, one worker gives %v",
						tc.name, tc.cube.Width, tc.cube.Height, tc.cube.Bands, workers, i, v, want.Temps[i])
				}
			}
			for i, v := range got.Emissivity.Data {
				if math.Float32bits(v) != math.Float32bits(want.Emissivity.Data[i]) {
					t.Fatalf("%s %dx%dx%d, %d workers: emissivity %d = %v, one worker gives %v",
						tc.name, tc.cube.Width, tc.cube.Height, tc.cube.Bands, workers, i, v, want.Emissivity.Data[i])
				}
			}
		}
	}
}
