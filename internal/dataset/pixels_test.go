package dataset

import (
	"bytes"
	"encoding/gob"
	"slices"
	"testing"
)

// TestPixelsLayout pins the byte layout: low byte first, pixel by pixel.
func TestPixelsLayout(t *testing.T) {
	p := Pixels{0x1234, 0xff00, 0x0001}
	want := []byte{0x34, 0x12, 0x00, 0xff, 0x01, 0x00}
	if got := p.LE(); !bytes.Equal(got, want) {
		t.Fatalf("LE() = % x, want % x", got, want)
	}
	if got := Pixels(nil).LE(); len(got) != 0 {
		t.Fatalf("nil LE() = % x, want empty", got)
	}
}

// TestImageGobRoundTrip sends frames through gob the way both TCP ports
// do: pixels come back unchanged and cost 2 bytes each on the wire, not
// a varint apiece.
func TestImageGobRoundTrip(t *testing.T) {
	im := NewImage(64, 64)
	for i := range im.Pix {
		im.Pix[i] = uint16(60000 + i)
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	if err := enc.Encode(im); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(im); err != nil {
		t.Fatal(err)
	}
	if second := buf.Len() - first; second > 2*len(im.Pix)+32 {
		t.Fatalf("a %d-pixel frame took %d wire bytes", len(im.Pix), second)
	}
	for range 2 {
		var got Image
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if got.Width != im.Width || got.Height != im.Height || !slices.Equal(got.Pix, im.Pix) {
			t.Fatal("frame changed on the way through gob")
		}
	}
}

// FuzzPixels feeds GobDecode arbitrary bytes: it must never panic, must
// reject an odd length, and must otherwise be undone exactly by
// GobEncode. LE must also agree with the portable conversion, which on a
// little-endian host is the only run the big-endian path gets.
func FuzzPixels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0x34, 0x12, 0x00, 0xff})
	f.Add([]byte{0x34, 0x12, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Pixels
		err := p.GobDecode(b)
		if len(b)%2 != 0 {
			if err == nil {
				t.Fatalf("decoded %d bytes, an odd length", len(b))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := make(Pixels, len(b)/2)
		getLE(want, b)
		if !slices.Equal(p, want) {
			t.Fatalf("GobDecode = %v, portable decode = %v", p, want)
		}
		enc, err := p.GobEncode()
		if err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("GobEncode = % x, %v; want % x", enc, err, b)
		}
		conv := make([]byte, 2*len(p))
		putLE(conv, p)
		if !bytes.Equal(p.LE(), conv) {
			t.Fatalf("LE() = % x, portable conversion = % x", p.LE(), conv)
		}
	})
}
