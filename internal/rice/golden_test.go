package rice

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

// The encoded bytes are the downlink format, so no change to the coder may
// move them. These digests were taken from the byte-at-a-time encoder with
// the exhaustive k search (the reference copy in fuzz_test.go); a change
// that fails here changes what the ground station receives.
const (
	encodeGoldenDigest        = 0xfebed63629f1875e
	encodeFloat32GoldenDigest = 0x26a819853fe1adbf
)

// goldenLengths cover the empty stream, partial first blocks, exact block
// multiples and a trailing one-sample block.
var goldenLengths = []int{0, 1, 31, 32, 33, 1000, 4097}

// goldenStreams returns the named 4097-sample inputs whose prefixes the
// Encode digest covers.
func goldenStreams(t *testing.T) map[string][]uint16 {
	t.Helper()
	const n = 4097
	src := rng.New(21)
	smooth, err := synth.GaussianSeries(synth.SeriesConfig{N: n, Initial: 27000, Sigma: 30}, src)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]uint16, n)
	ramp := make([]uint16, n)
	cr := append([]uint16(nil), smooth...)
	escape := make([]uint16, n)
	highK := make([]uint16, n)
	cur := int32(32768)
	for i := range flat {
		flat[i] = 27000
		ramp[i] = uint16(1000 + 13*i)
		if src.Bernoulli(0.03) {
			cr[i] = 65535
		}
		if i%2 == 1 {
			escape[i] = 65535
		}
		// Steps of up to ±6000 push k to 11-13 without escaping.
		cur += int32(src.Intn(12001)) - 6000
		cur = max(0, min(65535, cur))
		highK[i] = uint16(cur)
	}
	return map[string][]uint16{
		"flat": flat, "ramp": ramp, "smooth": smooth,
		"cr": cr, "escape": escape, "highk": highK,
	}
}

// goldenFloat32 returns the float32 inputs the EncodeFloat32 digest covers:
// the three OTIS morphologies and the special values.
func goldenFloat32(t *testing.T) [][]float32 {
	t.Helper()
	var out [][]float32
	for i, kind := range []synth.OTISKind{synth.Blob, synth.Stripe, synth.Spots} {
		sc, err := synth.NewOTISScene(synth.DefaultOTISConfig(kind), rng.New(uint64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc.Cube.Data)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := math.Float32frombits(1 << 31)
	special := []float32{0, negZero, nan, inf, -inf, 1, -1, math.MaxFloat32, math.SmallestNonzeroFloat32}
	mixed := append([]float32(nil), out[0][:1000]...)
	for i := range mixed {
		if i%7 == 0 {
			mixed[i] = special[i%len(special)]
		}
	}
	return append(out, special, mixed)
}

// digestOutputs hashes each encoding behind its length, so moving bytes
// between neighbouring outputs also changes the digest.
func digestOutputs(h hash.Hash64, enc []byte) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(len(enc)))
	h.Write(word[:])
	h.Write(enc)
}

func TestRiceEncodeGolden(t *testing.T) {
	streams := goldenStreams(t)
	h := fnv.New64a()
	for _, name := range []string{"flat", "ramp", "smooth", "cr", "escape", "highk"} {
		for _, n := range goldenLengths {
			digestOutputs(h, Encode(streams[name][:n]))
		}
	}
	if got := h.Sum64(); got != encodeGoldenDigest {
		t.Errorf("Encode digest = %#x, want %#x", got, uint64(encodeGoldenDigest))
	}

	h = fnv.New64a()
	for _, samples := range goldenFloat32(t) {
		digestOutputs(h, EncodeFloat32(samples))
	}
	if got := h.Sum64(); got != encodeFloat32GoldenDigest {
		t.Errorf("EncodeFloat32 digest = %#x, want %#x", got, uint64(encodeFloat32GoldenDigest))
	}
}
