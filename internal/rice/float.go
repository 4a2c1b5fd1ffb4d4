package rice

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
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
// Each half is read straight from the float words, a block at a time. The
// two streams are independent and each ends on a byte boundary, so with
// more than one P the low halves are coded on a second goroutine into the
// tail of the one output buffer while the caller codes the high halves;
// the low stream is then copied down behind the high one, giving the
// bytes a sequential pass writes in place.
func EncodeFloat32(samples []float32) []byte {
	m := MaxEncodedLen(len(samples))
	out := make([]byte, 4, 4+2*m)
	if runtime.GOMAXPROCS(0) == 1 {
		out = appendEncode(out, nil, samples, 16)
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		return appendEncode(out, nil, samples, 0)
	}
	tail := out[4+m : 4+m : 4+2*m]
	var low struct {
		sync.WaitGroup
		n int // the low stream's length
	}
	low.Add(1)
	go func() {
		defer low.Done()
		low.n = len(appendEncode(tail, nil, samples, 0))
	}()
	hi := appendEncode(out[4:4:4+m], nil, samples, 16)
	low.Wait()
	binary.BigEndian.PutUint32(out, uint32(len(hi)))
	end := 4 + len(hi) + low.n
	copy(out[4+len(hi):end], tail[:low.n])
	return out[:end]
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
