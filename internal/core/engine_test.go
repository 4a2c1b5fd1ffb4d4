package core

import (
	"testing"
	"testing/quick"

	"spaceproc/internal/bitutil"
)

func TestPruneIndexMonotoneInSensitivity(t *testing.T) {
	prev := 0
	for lambda := 1; lambda <= 100; lambda++ {
		phi := PruneIndex(lambda, 64)
		if phi < prev {
			t.Fatalf("PruneIndex decreased at lambda=%d: %d < %d", lambda, phi, prev)
		}
		prev = phi
	}
	// Paper anchor: at Lambda=80 the cut-off sits at the way median (the
	// paper's N/4 of an N/2-element way; see DESIGN.md #4.2).
	if got := PruneIndex(80, 64); got != 32 {
		t.Fatalf("PruneIndex(80, 64) = %d, want 32", got)
	}
}

func TestPruneIndexClamps(t *testing.T) {
	if got := PruneIndex(0, 4); got < 1 {
		t.Fatalf("PruneIndex(0,4) = %d, want >= 1", got)
	}
	if got := PruneIndex(100, 2); got > 2 {
		t.Fatalf("PruneIndex(100,2) = %d, want <= 2", got)
	}
	if got := PruneIndex(50, 0); got != 1 {
		t.Fatalf("PruneIndex(50,0) = %d, want 1", got)
	}
}

func TestPruneIndexPropertyInRange(t *testing.T) {
	f := func(lRaw, cRaw uint8) bool {
		lambda := int(lRaw) % 101
		count := int(cRaw) + 1
		phi := PruneIndex(lambda, count)
		return phi >= 1 && phi <= count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWayThreshold(t *testing.T) {
	// Descending sort: {900, 500, 120, 40, 7}. Phi at lambda=80 with
	// count 5 is floor(5/2 + 0) = 2 -> 2nd greatest element 500 -> 512.
	xors := []uint32{40, 900, 7, 500, 120}
	if got := wayThreshold(xors, 80, PruneIndex); got != 512 {
		t.Fatalf("wayThreshold = %d, want 512", got)
	}
	// Higher sensitivity digs deeper: lambda=100 -> phi = floor(1.25 +
	// 0.2*0.25) = 1 still for tiny count; use a larger slice for depth.
	big := make([]uint32, 64)
	for i := range big {
		big[i] = uint32(i + 1) // 1..64
	}
	loSens := wayThreshold(big, 10, PruneIndex) // phi small -> large order statistic
	hiSens := wayThreshold(big, 100, PruneIndex)
	if hiSens > loSens {
		t.Fatalf("threshold should not rise with sensitivity: L=10 %d, L=100 %d", loSens, hiSens)
	}
	if got := wayThreshold(nil, 50, PruneIndex); got != 1 {
		t.Fatalf("empty way threshold = %d, want 1", got)
	}
}

func TestWindowMasksOrdering(t *testing.T) {
	lsb, msb := windowMasks([]uint32{512, 4096}, 16)
	// Window C: bits < 9; lsbMask keeps bits 9..15.
	if lsb != bitutil.MaskAtOrAbove(9, 16) {
		t.Fatalf("lsbMask = %#x", lsb)
	}
	// Window A: bits >= 12.
	if msb != bitutil.MaskAtOrAbove(12, 16) {
		t.Fatalf("msbMask = %#x", msb)
	}
	// A must be inside not-C.
	if msb&^lsb != 0 {
		t.Fatal("window A extends into window C")
	}
}

func TestWindowMasksProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		va := bitutil.CeilPow2(uint32(a) + 1)
		vb := bitutil.CeilPow2(uint32(b) + 1)
		lsb, msb := windowMasks([]uint32{va, vb}, 16)
		return msb&^lsb == 0 // A subset of not-C always
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectTemporalRepairsSingleHighBitFlip(t *testing.T) {
	// Constant series with one flipped MSB: unanimous voting must
	// reconstruct it exactly.
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = 27000
	}
	vals[30] ^= 1 << 14
	corr := correctTemporal(vals, 4, 80, 16)
	for i, c := range corr {
		want := uint32(0)
		if i == 30 {
			want = 1 << 14
		}
		if c != want {
			t.Fatalf("corr[%d] = %#x, want %#x", i, c, want)
		}
	}
}

func TestCorrectTemporalCleanConstantSeriesUntouched(t *testing.T) {
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = 31415
	}
	for _, lambda := range []int{20, 50, 80, 100} {
		corr := correctTemporal(vals, 4, lambda, 16)
		for i, c := range corr {
			if c != 0 {
				t.Fatalf("lambda=%d: clean constant series corrected at %d (%#x)", lambda, i, c)
			}
		}
	}
}

func TestCorrectTemporalZeroSensitivityNoOp(t *testing.T) {
	vals := []uint32{1, 99999, 3, 4, 5, 6}
	corr := correctTemporal(vals, 4, 0, 16)
	for _, c := range corr {
		if c != 0 {
			t.Fatal("lambda=0 must not correct anything")
		}
	}
}

func TestCorrectTemporalShortSeries(t *testing.T) {
	for n := 0; n < 3; n++ {
		vals := make([]uint32, n)
		corr := correctTemporal(vals, 4, 80, 16)
		if len(corr) != n {
			t.Fatalf("n=%d: corr length %d", n, len(corr))
		}
	}
}

func TestCorrectTemporalEdgePixels(t *testing.T) {
	// A flip at the first element has only forward neighbors; it should
	// still be repaired via the reduced voter set.
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = 20000
	}
	vals[0] ^= 1 << 13
	corr := correctTemporal(vals, 4, 80, 16)
	if corr[0] != 1<<13 {
		t.Fatalf("edge flip not repaired: corr[0] = %#x", corr[0])
	}
}

func TestPruned(t *testing.T) {
	if pruned(100, 100) != 0 {
		t.Error("value equal to cut-off must be pruned")
	}
	if pruned(101, 100) != 101 {
		t.Error("value above cut-off must survive")
	}
	if pruned(0, 1) != 0 {
		t.Error("zero must stay zero")
	}
}
