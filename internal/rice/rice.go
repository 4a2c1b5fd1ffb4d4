// Package rice implements the Rice entropy coder the NGST pipeline uses to
// compress integrated images before downlink (the paper's Section 2:
// "after compression using Rice Algorithm", citing Fixsen et al.'s NGST
// cosmic-ray rejection and data compression work).
//
// The coder follows the classic CCSDS/FITS convention: samples are
// delta-mapped against their predecessor, zigzag-folded to non-negative
// integers, and coded in blocks with a per-block Rice parameter k chosen to
// minimize the encoded size; each value is then an output of quotient unary
// coding followed by k literal bits. A per-block escape to verbatim coding
// bounds the worst case on incompressible (e.g. cosmic-ray-riddled) data —
// the mechanism behind the paper's note that CR hits degrade the
// compression ratio.
//
// The encoder runs at word speed. A block's coded size is convex in k, so
// the search walks from the bit length of the block mean to the first k
// that does not improve instead of trying every k. The bit writer keeps a
// 64-bit accumulator and stores 32 bits at a time; a value's unary run,
// terminator and low bits go in as one write when they fit in 32 bits.
// The output is appended into one buffer sized by MaxEncodedLen.
package rice

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// BlockSize is the number of samples per independently-parameterized block.
const BlockSize = 32

// maxK is the largest usable Rice parameter for 16-bit deltas.
const maxK = 16

// escapeK is the k value marking a verbatim (uncompressed) block.
const escapeK = 31

// Errors returned by Decode.
var (
	// ErrCorrupt indicates the stream is not a valid encoding.
	ErrCorrupt = errors.New("rice: corrupt stream")
	// ErrTruncated indicates the stream ended mid-value.
	ErrTruncated = errors.New("rice: truncated stream")
)

// Encode compresses samples. The output is self-describing: a header with
// the sample count followed by the coded blocks.
func Encode(samples []uint16) []byte {
	return appendEncode(make([]byte, 0, MaxEncodedLen(len(samples))), samples, nil, 0)
}

// MaxEncodedLen returns the longest encoding of n samples: the 4-byte
// header, then every block escaped to verbatim (a 5-bit k and 16 bits a
// sample), padded to a whole byte. Incompressible input reaches it.
func MaxEncodedLen(n int) int {
	blocks := (n + BlockSize - 1) / BlockSize
	return 4 + (5*blocks+16*n+7)/8
}

// appendEncode appends the encoding of samples to dst. When floats is
// non-nil it codes the 16-bit halves uint16(Float32bits(v) >> shift) of
// floats instead, read into a stack block one block at a time, and samples
// is ignored. With MaxEncodedLen(n) bytes of spare capacity for n samples
// it never grows dst.
func appendEncode(dst []byte, samples []uint16, floats []float32, shift uint) []byte {
	n := len(samples)
	if floats != nil {
		n = len(floats)
	}
	w := bitWriter{bytes: binary.BigEndian.AppendUint32(dst, uint32(n))}
	prev := uint16(0)
	var mapped [BlockSize]uint32
	var halves [BlockSize]uint16
	for off := 0; off < n; off += BlockSize {
		end := min(off+BlockSize, n)
		block := halves[:end-off]
		if floats == nil {
			block = samples[off:end]
		} else {
			for i, v := range floats[off:end] {
				block[i] = uint16(math.Float32bits(v) >> shift)
			}
		}
		m := mapped[:len(block)]
		p := prev
		for i, s := range block {
			m[i] = zigzag(int32(s) - int32(p))
			p = s
		}
		prev = p

		k, cost := bestK(m)
		if cost >= 5+16*len(m) {
			w.writeBits(escapeK, 5)
			for _, s := range block {
				w.writeBits(uint32(s), 16)
			}
			continue
		}
		w.writeBits(uint32(k), 5)
		top := uint32(1) << uint(k)
		for _, v := range m {
			// q zeros, the terminating 1, then the k low bits.
			q := int(v >> uint(k))
			code := top | v&(top-1)
			if n := q + 1 + k; n <= 32 {
				w.writeBits(code, n)
				continue
			}
			for ; q > 32; q -= 32 {
				w.writeBits(0, 32)
			}
			w.writeBits(0, q)
			w.writeBits(code, 1+k)
		}
	}
	w.flush()
	return w.bytes
}

// Decode reverses Encode.
func Decode(data []byte) ([]uint16, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: missing header", ErrTruncated)
	}
	n := int(binary.BigEndian.Uint32(data))
	// Every sample costs at least one bit on the wire (and each block at
	// least 5), so a count beyond the stream's bit budget is corrupt; the
	// check also stops a hostile header from driving the preallocation.
	if n > len(data)*8 {
		return nil, fmt.Errorf("%w: header claims %d samples in %d bytes", ErrTruncated, n, len(data))
	}
	r := bitReader{bytes: data[4:]}
	out := make([]uint16, 0, n)
	prev := int32(0)
	for len(out) < n {
		k, err := r.readBits(5)
		if err != nil {
			return nil, err
		}
		blockLen := BlockSize
		if rem := n - len(out); rem < blockLen {
			blockLen = rem
		}
		if k == escapeK {
			for j := 0; j < blockLen; j++ {
				v, err := r.readBits(16)
				if err != nil {
					return nil, err
				}
				out = append(out, uint16(v))
			}
			prev = int32(out[len(out)-1])
			continue
		}
		if k > maxK {
			return nil, fmt.Errorf("%w: k = %d", ErrCorrupt, k)
		}
		for j := 0; j < blockLen; j++ {
			q := uint32(0)
			for {
				b, err := r.readBits(1)
				if err != nil {
					return nil, err
				}
				if b == 1 {
					break
				}
				q++
				if q > 1<<20 {
					return nil, fmt.Errorf("%w: runaway unary code", ErrCorrupt)
				}
			}
			low := uint32(0)
			if k > 0 {
				low, err = r.readBits(int(k))
				if err != nil {
					return nil, err
				}
			}
			delta := unzigzag(q<<uint(k) | low)
			v := prev + delta
			if v < 0 || v > 0xFFFF {
				return nil, fmt.Errorf("%w: sample %d out of range", ErrCorrupt, v)
			}
			out = append(out, uint16(v))
			prev = v
		}
	}
	return out, nil
}

// bestK returns the Rice parameter minimizing the coded size of the mapped
// block and that size in bits, the 5-bit k field included so callers can
// compare it against verbatim. The size 5 + n(1+k) + Σ m>>k is convex in k:
// its step n − Σ⌈(m>>k)/2⌉ never decreases as k grows. So a walk from
// bitlen(mean) − 1 that stops at the first k that does not improve finds
// the minimum, and walking down on ties keeps the smallest minimizing k.
func bestK(mapped []uint32) (int, int) {
	sum := 0
	for _, m := range mapped {
		sum += int(m)
	}
	k := min(max(bits.Len(uint(sum/len(mapped)))-1, 0), maxK)
	cost := blockCost(mapped, k)
	up := false
	for k < maxK {
		c := blockCost(mapped, k+1)
		if c >= cost {
			break
		}
		k, cost, up = k+1, c, true
	}
	for !up && k > 0 {
		c := blockCost(mapped, k-1)
		if c > cost {
			break
		}
		k, cost = k-1, c
	}
	return k, cost
}

// blockCost is the coded size in bits of the mapped block at parameter k,
// k field included.
func blockCost(mapped []uint32, k int) int {
	cost := 5 + len(mapped)*(1+k)
	for _, m := range mapped {
		cost += int(m >> uint(k))
	}
	return cost
}

// zigzag folds a signed delta into a non-negative integer: 0, -1, 1, -2, 2
// map to 0, 1, 2, 3, 4.
func zigzag(v int32) uint32 {
	return uint32((v << 1) ^ (v >> 31))
}

// unzigzag reverses zigzag.
func unzigzag(u uint32) int32 {
	return int32(u>>1) ^ -int32(u&1)
}

// bitWriter accumulates big-endian bit strings, storing 32 bits at a time.
type bitWriter struct {
	bytes []byte
	acc   uint64 // pending bits in the low nbits; higher bits are stale
	nbits int    // below 32 between writes
}

// writeBits appends the n low bits of v (n <= 32, v < 1<<n), most
// significant first.
func (w *bitWriter) writeBits(v uint32, n int) {
	w.acc = w.acc<<uint(n) | uint64(v)
	w.nbits += n
	if w.nbits >= 32 {
		w.nbits -= 32
		w.bytes = binary.BigEndian.AppendUint32(w.bytes, uint32(w.acc>>uint(w.nbits)))
	}
}

// flush stores the pending bits, padding the final byte with zero bits.
func (w *bitWriter) flush() {
	for ; w.nbits >= 8; w.nbits -= 8 {
		w.bytes = append(w.bytes, byte(w.acc>>uint(w.nbits-8)))
	}
	if w.nbits > 0 {
		w.bytes = append(w.bytes, byte(w.acc<<uint(8-w.nbits)))
		w.nbits = 0
	}
}

// bitReader consumes big-endian bit strings.
type bitReader struct {
	bytes []byte
	pos   int
	acc   uint64
	nbits int
}

// readBits returns the next n bits (n <= 32), most significant first.
func (r *bitReader) readBits(n int) (uint32, error) {
	for r.nbits < n {
		if r.pos >= len(r.bytes) {
			return 0, ErrTruncated
		}
		r.acc = r.acc<<8 | uint64(r.bytes[r.pos])
		r.pos++
		r.nbits += 8
	}
	r.nbits -= n
	v := uint32(r.acc>>uint(r.nbits)) & uint32(1<<uint(n)-1)
	return v, nil
}

// Ratio returns the compression ratio achieved on samples: input bytes over
// encoded bytes. Larger is better; 1 means no compression.
func Ratio(samples []uint16) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(2*len(samples)) / float64(len(Encode(samples)))
}
