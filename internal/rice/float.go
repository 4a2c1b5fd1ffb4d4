package rice

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float32 support for OTIS radiance cubes. IEEE-754 words do not delta-map
// well as whole integers (the exponent/mantissa boundary breaks
// arithmetic), so the encoder splits each sample into its high and low
// 16-bit halves and codes the two streams separately: the high halves
// (sign, exponent, top mantissa) are strongly correlated across a smooth
// radiance field and compress hard; the low halves carry most of the
// entropy and cost close to verbatim, bounded by the per-block escape.

// EncodeFloat32 compresses an IEEE-754 float32 sample stream: a 4-byte
// length of the high-half encoding, that encoding, then the low halves'.
func EncodeFloat32(samples []float32) []byte {
	half := make([]uint16, len(samples))
	for i, v := range samples {
		half[i] = uint16(math.Float32bits(v) >> 16)
	}
	out := appendEncode(make([]byte, 4, 4+2*MaxEncodedLen(len(samples))), half)
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	for i, v := range samples {
		half[i] = uint16(math.Float32bits(v))
	}
	return appendEncode(out, half)
}

// DecodeFloat32 reverses EncodeFloat32.
func DecodeFloat32(data []byte) ([]float32, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: missing float header", ErrTruncated)
	}
	hiLen := int(binary.BigEndian.Uint32(data))
	if hiLen < 0 || 4+hiLen > len(data) {
		return nil, fmt.Errorf("%w: high-half stream length %d", ErrCorrupt, hiLen)
	}
	hi, err := Decode(data[4 : 4+hiLen])
	if err != nil {
		return nil, fmt.Errorf("high halves: %w", err)
	}
	lo, err := Decode(data[4+hiLen:])
	if err != nil {
		return nil, fmt.Errorf("low halves: %w", err)
	}
	if len(hi) != len(lo) {
		return nil, fmt.Errorf("%w: %d high halves, %d low halves", ErrCorrupt, len(hi), len(lo))
	}
	out := make([]float32, len(hi))
	for i := range out {
		out[i] = math.Float32frombits(uint32(hi[i])<<16 | uint32(lo[i]))
	}
	return out, nil
}

// RatioFloat32 returns the compression ratio achieved on samples.
func RatioFloat32(samples []float32) float64 {
	if len(samples) == 0 {
		return 1
	}
	return float64(4*len(samples)) / float64(len(EncodeFloat32(samples)))
}
