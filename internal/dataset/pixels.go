package dataset

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Pixels is a run of 16-bit pixels and the one owner of their byte
// layout: two bytes per pixel, low byte first, in order. The content
// digest, the write-ahead log and both TCP ports all see pixels in this
// layout, through LE.
//
// Pixels implements gob.GobEncoder and gob.GobDecoder, so any gob value
// carrying pixels moves them as one byte string rather than one varint
// per pixel. Gob's type for it is not a plain []uint16's, so a peer
// built before Pixels existed cannot exchange pixels with one built
// after.
type Pixels []uint16

// hostLE reports whether the host lays a uint16 out low byte first, so
// that a pixel run's own memory already is its little-endian bytes.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// LE returns p's little-endian bytes. On a little-endian host they are a
// view of p's own memory and cost no copy; elsewhere they are a fresh
// conversion. Either way the caller only reads them, and drops them
// before the call that took them returns: a write through the view would
// change p, and a kept view aliases memory p's owner may reuse.
func (p Pixels) LE() []byte {
	if hostLE {
		return view(p)
	}
	b := make([]byte, 2*len(p))
	putLE(b, p)
	return b
}

// GobEncode implements gob.GobEncoder. Gob copies the bytes into its
// buffer before this returns, so the view does not outlive the call.
func (p Pixels) GobEncode() ([]byte, error) { return p.LE(), nil }

// GobDecode implements gob.GobDecoder: it replaces p with the pixels b
// holds, which must be whole little-endian pixels. b is not retained.
func (p *Pixels) GobDecode(b []byte) error {
	if len(b)%2 != 0 {
		return fmt.Errorf("dataset: %d pixel bytes is not a whole number of pixels", len(b))
	}
	px := make(Pixels, len(b)/2)
	if hostLE {
		copy(view(px), b)
	} else {
		getLE(px, b)
	}
	*p = px
	return nil
}

// view is p's memory as bytes, in host order: the module's one use of
// unsafe. Only LE, to be read, and GobDecode, to fill a run it has just
// made, call it.
func view(p Pixels) []byte {
	if len(p) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), 2*len(p))
}

// putLE is the portable conversion: it writes p's little-endian bytes
// into b, which holds exactly 2*len(p) bytes.
func putLE(b []byte, p Pixels) {
	for i, v := range p {
		binary.LittleEndian.PutUint16(b[2*i:], v)
	}
}

// getLE reverses putLE: it reads len(p) little-endian pixels from b.
func getLE(p Pixels, b []byte) {
	for i := range p {
		p[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}
