package rice

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"spaceproc/internal/rng"
	"spaceproc/internal/synth"
)

func roundTrip(t *testing.T, samples []uint16) []byte {
	t.Helper()
	enc := Encode(samples)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec) != len(samples) {
		t.Fatalf("length %d != %d", len(dec), len(samples))
	}
	for i := range samples {
		if dec[i] != samples[i] {
			t.Fatalf("sample %d: %d != %d", i, dec[i], samples[i])
		}
	}
	return enc
}

func TestRoundTripBasic(t *testing.T) {
	tests := [][]uint16{
		{},
		{0},
		{65535},
		{1, 2, 3, 4, 5},
		{27000, 27001, 26999, 27002, 27000},
		make([]uint16, 1000), // all zeros
	}
	for _, s := range tests {
		roundTrip(t, s)
	}
}

func TestRoundTripRandom(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		n := src.Intn(500) + 1
		s := make([]uint16, n)
		for i := range s {
			s[i] = uint16(src.Uint32())
		}
		roundTrip(t, s)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(s []uint16) bool {
		enc := Encode(s)
		dec, err := Decode(enc)
		if err != nil || len(dec) != len(s) {
			return false
		}
		for i := range s {
			if dec[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothDataCompresses(t *testing.T) {
	// NGST-like smooth temporal data must compress well.
	ser, err := synth.GaussianSeries(synth.SeriesConfig{N: 4096, Initial: 27000, Sigma: 30}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	enc := roundTrip(t, ser)
	ratio := float64(2*len(ser)) / float64(len(enc))
	if ratio < 2 {
		t.Fatalf("smooth data ratio = %.2f, want >= 2", ratio)
	}
}

func TestRandomDataDoesNotExplode(t *testing.T) {
	// Incompressible data must stay near 1:1 thanks to the verbatim
	// escape (overhead bounded by the per-block k field).
	src := rng.New(3)
	s := make([]uint16, 4096)
	for i := range s {
		s[i] = uint16(src.Uint32())
	}
	enc := roundTrip(t, s)
	overhead := float64(len(enc))/float64(2*len(s)) - 1
	if overhead > 0.05 {
		t.Fatalf("incompressible overhead = %.1f%%, want <= 5%%", overhead*100)
	}
}

func TestBitFlipsDegradeCompression(t *testing.T) {
	// The paper's Section 2 motivation: damage (CR hits / bit flips)
	// reduces the compression ratio.
	ser, err := synth.GaussianSeries(synth.SeriesConfig{N: 8192, Initial: 27000, Sigma: 30}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	clean := Ratio(ser)
	damaged := append([]uint16(nil), ser...)
	src := rng.New(5)
	for i := range damaged {
		if src.Bernoulli(0.05) {
			damaged[i] ^= 1 << uint(src.Intn(16))
		}
	}
	dirty := Ratio(damaged)
	if dirty >= clean {
		t.Fatalf("damage did not degrade compression: clean %.2f, damaged %.2f", clean, dirty)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil input: %v", err)
	}
	if _, err := Decode([]byte{0, 0}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	// Header claims samples but no body follows.
	if _, err := Decode([]byte{0, 0, 0, 10}); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing body: %v", err)
	}
	// Illegal k (between maxK and escape).
	bad := []byte{0, 0, 0, 1, 20 << 3} // k=20 in the top 5 bits
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad k: %v", err)
	}
	// Truncating a valid stream mid-body must error, not panic.
	s := []uint16{100, 200, 300, 400, 500, 600, 700, 800}
	enc := Encode(s)
	for cut := 4; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation at %d silently succeeded", cut)
		}
	}
}

func TestZigzag(t *testing.T) {
	tests := []struct {
		v int32
		u uint32
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}, {-32768, 65535}, {32767, 65534}}
	for _, tt := range tests {
		if got := zigzag(tt.v); got != tt.u {
			t.Errorf("zigzag(%d) = %d, want %d", tt.v, got, tt.u)
		}
		if got := unzigzag(tt.u); got != tt.v {
			t.Errorf("unzigzag(%d) = %d, want %d", tt.u, got, tt.v)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int32) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w bitWriter
	w.writeBits(0b101, 3)
	w.writeBits(0xFFFF, 16)
	w.writeBits(0, 1)
	w.writeBits(0xDEADBEEF, 32)
	w.flush()
	r := bitReader{bytes: w.bytes}
	if v, _ := r.readBits(3); v != 0b101 {
		t.Fatalf("3-bit read = %b", v)
	}
	if v, _ := r.readBits(16); v != 0xFFFF {
		t.Fatalf("16-bit read = %x", v)
	}
	if v, _ := r.readBits(1); v != 0 {
		t.Fatalf("1-bit read = %d", v)
	}
	if v, _ := r.readBits(32); v != 0xDEADBEEF {
		t.Fatalf("32-bit read = %x", v)
	}
	if _, err := r.readBits(32); err == nil {
		t.Fatal("reading past end should error")
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(make([]uint16, 640)); r < 10 {
		t.Fatalf("all-zero ratio = %.2f, want large", r)
	}
	// Nothing to compress is no compression, not a ratio of 0.
	if r := Ratio(nil); r != 1 {
		t.Errorf("empty ratio = %v, want 1", r)
	}
	if r := RatioFloat32(nil); r != 1 {
		t.Errorf("empty float32 ratio = %v, want 1", r)
	}
}

// TestMaxEncodedLenIsReached checks the bound is the worst case exactly:
// full-scale swings escape every block, and the encoding fills the bound.
func TestMaxEncodedLenIsReached(t *testing.T) {
	for _, n := range []int{1, 31, 32, 33, 1000} {
		s := make([]uint16, n)
		for i := 0; i < n; i += 2 {
			s[i] = 65535
		}
		if got, want := len(Encode(s)), MaxEncodedLen(n); got != want {
			t.Errorf("%d samples: all-escape encoding is %d bytes, MaxEncodedLen %d", n, got, want)
		}
	}
}

// TestEncodeAllocs pins the one output buffer. Encode allocates only its
// result. EncodeFloat32 on one P allocates only its result; with more it
// also allocates the closure of the goroutine that codes the low halves
// and the WaitGroup that carries the low stream's length, so 3 in all. No
// allocation grows with the sample count: the bytes allocated per call stay
// within 1 KiB of allocating the output buffer alone.
func TestEncodeAllocs(t *testing.T) {
	smooth, err := synth.GaussianSeries(synth.SeriesConfig{N: 16384, Initial: 27000, Sigma: 30}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(12)
	image := make([]uint16, 128*128)
	for i := range image {
		image[i] = 27000 + uint16(src.Intn(200))
		if src.Bernoulli(0.01) {
			image[i] = 65535
		}
	}
	for name, s := range map[string][]uint16{"smooth": smooth, "image": image} {
		if n := testing.AllocsPerRun(10, func() { Encode(s) }); n != 1 {
			t.Errorf("Encode(%s) makes %v allocations, want 1", name, n)
		}
	}
	sc, err := synth.NewOTISScene(synth.DefaultOTISConfig(synth.Blob), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	data := sc.Cube.Data
	_, outBytes := allocsPerCall(1, func() { allocSink = make([]byte, 4, 4+2*MaxEncodedLen(len(data))) })
	for _, tc := range []struct{ procs, allocs int }{{1, 1}, {2, 3}} {
		allocs, bytes := allocsPerCall(tc.procs, func() { EncodeFloat32(data) })
		if allocs != tc.allocs {
			t.Errorf("EncodeFloat32 at GOMAXPROCS %d makes %d allocations, want %d", tc.procs, allocs, tc.allocs)
		}
		if bytes >= outBytes+1024 {
			t.Errorf("EncodeFloat32 at GOMAXPROCS %d allocates %d bytes a call, want under the output's %d + 1024",
				tc.procs, bytes, outBytes)
		}
	}
}

// allocSink keeps a measured allocation alive.
var allocSink []byte

// allocsPerCall is testing.AllocsPerRun at a chosen GOMAXPROCS (which
// AllocsPerRun pins to 1), also reporting the bytes allocated per call.
// Above one P, starting a goroutine allocates a descriptor until dead ones
// collect on the free lists, so f warms up for 100 calls, and the least of
// three 20-call batches is taken, leaving out stray runtime allocations.
func allocsPerCall(procs int, f func()) (allocs, bytes int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < 100; i++ {
		f()
	}
	allocs, bytes = math.MaxInt, math.MaxInt
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, int((after.Mallocs-before.Mallocs)/20))
		bytes = min(bytes, int((after.TotalAlloc-before.TotalAlloc)/20))
	}
	return allocs, bytes
}

func TestLargeValuesWithHugeDeltas(t *testing.T) {
	// Alternating extremes stress the unary chunking path (q >= 32).
	s := make([]uint16, 64)
	for i := range s {
		if i%2 == 0 {
			s[i] = 0
		} else {
			s[i] = 65535
		}
	}
	roundTrip(t, s)
}
