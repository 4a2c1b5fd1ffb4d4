package rice

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"spaceproc/internal/rng"
)

// The byte-at-a-time encoder with the exhaustive k search below is the
// reference Encode must reproduce byte for byte: it tries all 17 values of
// k on every block and appends one output byte at a time.

func refEncode(samples []uint16) []byte {
	var w refBitWriter
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(samples)))
	w.bytes = append(w.bytes, hdr[:]...)

	prev := uint16(0)
	mapped := make([]uint32, 0, BlockSize)
	for off := 0; off < len(samples); off += BlockSize {
		end := off + BlockSize
		if end > len(samples) {
			end = len(samples)
		}
		mapped = mapped[:0]
		p := prev
		for _, s := range samples[off:end] {
			mapped = append(mapped, zigzag(int32(s)-int32(p)))
			p = s
		}
		prev = p

		k, cost := refBestK(mapped)
		verbatimCost := 5 + 16*len(mapped)
		if cost >= verbatimCost {
			w.writeBits(escapeK, 5)
			for _, s := range samples[off:end] {
				w.writeBits(uint32(s), 16)
			}
			continue
		}
		w.writeBits(uint32(k), 5)
		for _, m := range mapped {
			q := m >> uint(k)
			for ; q >= 32; q -= 32 {
				w.writeBits(0, 32)
			}
			// q zeros then a terminating 1.
			w.writeBits(1, int(q)+1)
			if k > 0 {
				w.writeBits(m&(1<<uint(k)-1), k)
			}
		}
	}
	w.flush()
	return w.bytes
}

func refBestK(mapped []uint32) (int, int) {
	bestParam, bestCost := 0, 1<<62
	for k := 0; k <= maxK; k++ {
		cost := 5
		for _, m := range mapped {
			cost += int(m>>uint(k)) + 1 + k
			if cost >= bestCost {
				break
			}
		}
		if cost < bestCost {
			bestParam, bestCost = k, cost
		}
	}
	return bestParam, bestCost
}

type refBitWriter struct {
	bytes []byte
	acc   uint64
	nbits int
}

func (w *refBitWriter) writeBits(v uint32, n int) {
	w.acc = w.acc<<uint(n) | uint64(v)&(1<<uint(n)-1)
	w.nbits += n
	for w.nbits >= 8 {
		w.nbits -= 8
		w.bytes = append(w.bytes, byte(w.acc>>uint(w.nbits)))
	}
}

func (w *refBitWriter) flush() {
	if w.nbits > 0 {
		w.bytes = append(w.bytes, byte(w.acc<<uint(8-w.nbits)))
		w.nbits = 0
	}
}

// FuzzDecode asserts that no byte stream can panic the decoder: it either
// returns samples or an error.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 0xFF, 0xFF, 0xFF})
	f.Add(Encode([]uint16{1, 2, 3, 60000, 0, 32768}))
	f.Add(Encode(make([]uint16, 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must round-trip through Encode/Decode.
		back, err := Decode(Encode(out))
		if err != nil {
			t.Fatalf("re-encode of decoded data failed: %v", err)
		}
		if len(back) != len(out) {
			t.Fatalf("round trip changed length: %d != %d", len(back), len(out))
		}
		for i := range out {
			if back[i] != out[i] {
				t.Fatalf("round trip changed sample %d", i)
			}
		}
	})
}

// FuzzEncodeRoundTrip asserts Encode/Decode identity over arbitrary
// sample buffers (bytes reinterpreted as uint16 pairs).
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78})
	f.Add(make([]byte, 1000))
	f.Fuzz(func(t *testing.T, raw []byte) {
		samples := make([]uint16, len(raw)/2)
		for i := range samples {
			samples[i] = uint16(raw[2*i])<<8 | uint16(raw[2*i+1])
		}
		dec, err := Decode(Encode(samples))
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if len(dec) != len(samples) {
			t.Fatalf("length %d != %d", len(dec), len(samples))
		}
		for i := range samples {
			if dec[i] != samples[i] {
				t.Fatalf("sample %d: %d != %d", i, dec[i], samples[i])
			}
		}
	})
}

// FuzzEncodeMatchesReference asserts Encode emits the reference encoder's
// bytes. raw is read twice: as samples, which are mostly incompressible,
// and as the signed steps of a walk scaled down by shift, which reaches
// every k.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(15), []byte{0x12, 0x34, 0x56, 0x78})
	f.Add(uint8(9), bytes.Repeat([]byte{0x80, 0x01, 0x7F, 0xFF}, 300))
	f.Add(uint8(4), bytes.Repeat([]byte{0x00, 0x00, 0xFF, 0xFF}, 40))
	f.Fuzz(func(t *testing.T, shift uint8, raw []byte) {
		samples := make([]uint16, len(raw)/2)
		walk := make([]uint16, len(samples))
		cur := uint16(27000)
		for i := range samples {
			samples[i] = uint16(raw[2*i])<<8 | uint16(raw[2*i+1])
			cur += uint16(int16(samples[i]) >> (shift % 16))
			walk[i] = cur
		}
		for _, s := range [][]uint16{samples, walk} {
			if got, want := Encode(s), refEncode(s); !bytes.Equal(got, want) {
				t.Fatalf("%d samples: Encode = %x, reference = %x", len(s), got, want)
			}
		}
	})
}

// refEncodeFloat32 is the two-pass float coder EncodeFloat32 must
// reproduce byte for byte: one half-word slice, filled with the high
// halves and then the low halves, each coded by refEncode.
func refEncodeFloat32(samples []float32) []byte {
	half := make([]uint16, len(samples))
	for i, v := range samples {
		half[i] = uint16(math.Float32bits(v) >> 16)
	}
	hi := refEncode(half)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(hi)))
	out = append(out, hi...)
	for i, v := range samples {
		half[i] = uint16(math.Float32bits(v))
	}
	return append(out, refEncode(half)...)
}

// FuzzEncodeFloat32MatchesReference asserts EncodeFloat32 emits the
// two-pass reference's bytes. raw is read three ways: as little-endian
// float words, which are mostly incompressible; as the steps of a smooth
// radiance-like walk, whose high halves compress hard; and as the float
// words with alternating runs of run+1 special values (NaN payloads,
// infinities, signed zeros, subnormals). Its length need not be a
// multiple of four or of BlockSize.
func FuzzEncodeFloat32MatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add(uint8(31), bytes.Repeat([]byte{0x00, 0x00, 0x80, 0x7f}, 33))
	f.Add(uint8(7), bytes.Repeat([]byte{0x01, 0xc0, 0xff, 0xff, 0x00, 0x00, 0x00, 0x80}, 300))
	specials := []float32{
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffffffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), 0, math.Float32frombits(1 << 31),
		math.SmallestNonzeroFloat32, -math.MaxFloat32,
	}
	f.Fuzz(func(t *testing.T, run uint8, raw []byte) {
		words := make([]float32, len(raw)/4)
		walk := make([]float32, len(words))
		special := make([]float32, len(words))
		cur := float32(8)
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			cur += float32(int8(raw[4*i])) * 1e-4
			walk[i] = cur
			special[i] = words[i]
			if (i/(int(run)+1))%2 == 0 {
				special[i] = specials[int(raw[4*i+1])%len(specials)]
			}
		}
		for _, s := range [][]float32{words, walk, special} {
			if got, want := EncodeFloat32(s), refEncodeFloat32(s); !bytes.Equal(got, want) {
				t.Fatalf("%d samples: EncodeFloat32 = %x, reference = %x", len(s), got, want)
			}
		}
	})
}

// TestBestKMatchesExhaustive checks the convex k walk against the
// exhaustive search on random blocks of every length, with values from
// all-zero to 2^17 and outliers that pull the block mean far from the
// optimum. Small blocks of small values tie between neighbouring k often;
// the walk must keep the smaller k, as the search does.
func TestBestKMatchesExhaustive(t *testing.T) {
	src := rng.New(17)
	var block [BlockSize]uint32
	ties := 0
	for trial := 0; trial < 1<<20; trial++ {
		m := block[:1+src.Intn(BlockSize)]
		width := src.Intn(18)
		for i := range m {
			bound := 1 << uint(width)
			if src.Intn(8) == 0 {
				bound = 1 << 17
			}
			m[i] = uint32(src.Intn(bound + 1))
		}
		k, cost := bestK(m)
		wantK, wantCost := refBestK(m)
		if k != wantK || cost != wantCost {
			t.Fatalf("block %v: bestK = (%d, %d), exhaustive search (%d, %d)", m, k, cost, wantK, wantCost)
		}
		if k < maxK && blockCost(m, k+1) == cost {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no block tied between neighbouring k; the tie rule went untested")
	}
}
