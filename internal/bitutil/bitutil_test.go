package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestCeilPow2(t *testing.T) {
	tests := []struct {
		in   uint32
		want uint32
	}{
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{255, 256},
		{256, 256},
		{257, 512},
		{1 << 30, 1 << 30},
		{(1 << 30) + 1, 1 << 31},
	}
	for _, tt := range tests {
		if got := CeilPow2(tt.in); got != tt.want {
			t.Errorf("CeilPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestCeilPow2Property(t *testing.T) {
	f := func(v uint32) bool {
		if v > 1<<31 {
			v >>= 1
		}
		p := CeilPow2(v)
		// p is a power of two, >= v (or 1 when v==0), and p/2 < v for v>1.
		if bits.OnesCount32(p) != 1 {
			return false
		}
		if v > 0 && p < v {
			return false
		}
		if v > 1 && p/2 >= v {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitIndex(t *testing.T) {
	tests := []struct {
		in   uint32
		want int
	}{
		{0, -1},
		{1, 0},
		{2, 1},
		{3, 1},
		{0x8000, 15},
		{0xFFFF, 15},
		{1 << 31, 31},
	}
	for _, tt := range tests {
		if got := BitIndex(tt.in); got != tt.want {
			t.Errorf("BitIndex(%#x) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMasks(t *testing.T) {
	if got := MaskAtOrAbove(0, 16); got != 0xFFFF {
		t.Errorf("MaskAtOrAbove(0,16) = %#x", got)
	}
	if got := MaskAtOrAbove(8, 16); got != 0xFF00 {
		t.Errorf("MaskAtOrAbove(8,16) = %#x", got)
	}
	if got := MaskAtOrAbove(16, 16); got != 0 {
		t.Errorf("MaskAtOrAbove(16,16) = %#x", got)
	}
	if got := MaskAtOrAbove(-3, 16); got != 0xFFFF {
		t.Errorf("MaskAtOrAbove(-3,16) = %#x", got)
	}
	if got := MaskAtOrAbove(0, 32); got != ^uint32(0) {
		t.Errorf("MaskAtOrAbove(0,32) = %#x", got)
	}
}

func TestMaskPartitionProperty(t *testing.T) {
	// For any boundary b, the mask splits the word there: it selects
	// every position at or above b and none below it.
	f := func(b uint8) bool {
		bit := int(b % 17)
		hi := MaskAtOrAbove(bit, 16)
		for i := 0; i < 16; i++ {
			if set := hi>>uint(i)&1 == 1; set != (i >= bit) {
				return false
			}
		}
		return hi>>16 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLongestRun(t *testing.T) {
	tests := []struct {
		in   []bool
		want int
	}{
		{nil, 0},
		{[]bool{false, false}, 0},
		{[]bool{true}, 1},
		{[]bool{true, true, false, true}, 2},
		{[]bool{false, true, true, true}, 3},
		{[]bool{true, false, true, true, false, true, true, true}, 3},
	}
	for _, tt := range tests {
		if got := LongestRun(tt.in); got != tt.want {
			t.Errorf("LongestRun(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMajorityVote3(t *testing.T) {
	tests := []struct {
		a, b, c, want uint16
	}{
		{0, 0, 0, 0},
		{0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
		{0xFFFF, 0xFFFF, 0, 0xFFFF},
		{0xFFFF, 0, 0, 0},
		{0xF0F0, 0xFF00, 0x0F00, 0xFF00},
	}
	for _, tt := range tests {
		if got := MajorityVote3(tt.a, tt.b, tt.c); got != tt.want {
			t.Errorf("MajorityVote3(%#x,%#x,%#x) = %#x, want %#x", tt.a, tt.b, tt.c, got, tt.want)
		}
	}
}

func TestMajorityVote3Property(t *testing.T) {
	// Majority is between AND and OR, and symmetric in its arguments.
	f := func(a, b, c uint16) bool {
		m := MajorityVote3(a, b, c)
		if m&(a&b&c) != a&b&c {
			return false
		}
		if m&^(a|b|c) != 0 {
			return false
		}
		return m == MajorityVote3(b, c, a) && m == MajorityVote3(c, a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveOneOutAND(t *testing.T) {
	tests := []struct {
		name string
		in   []uint32
		want uint32
	}{
		{"empty", nil, 0},
		{"single", []uint32{0xFFFF}, 0},
		{"pair identical", []uint32{0xFF00, 0xFF00}, 0xFF00},
		{"pair disjoint", []uint32{0xFF00, 0x00FF}, 0xFFFF}, // each survives dropping the other
		{"three one dissent", []uint32{0xF000, 0xF000, 0x0000}, 0xF000},
		{"three unanimous", []uint32{0x00F0, 0x00F0, 0x00F0}, 0x00F0},
		{"four two dissents", []uint32{0xF000, 0xF000, 0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LeaveOneOutAND(tt.in); got != tt.want {
				t.Errorf("LeaveOneOutAND(%#x) = %#x, want %#x", tt.in, got, tt.want)
			}
		})
	}
}

func TestLeaveOneOutANDProperty(t *testing.T) {
	// Against the O(n^2) reference: bit set iff set in >= n-1 inputs.
	ref := func(vals []uint32) uint32 {
		if len(vals) < 2 {
			return 0
		}
		var out uint32
		for b := 0; b < 32; b++ {
			cnt := 0
			for _, v := range vals {
				if v&(1<<uint(b)) != 0 {
					cnt++
				}
			}
			if cnt >= len(vals)-1 {
				out |= 1 << uint(b)
			}
		}
		return out
	}
	f := func(a, b, c, d uint32, n uint8) bool {
		vals := []uint32{a, b, c, d}[:n%5]
		return LeaveOneOutAND(vals) == ref(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestANDAll(t *testing.T) {
	if got := ANDAll(nil); got != 0 {
		t.Errorf("ANDAll(nil) = %#x, want 0", got)
	}
	if got := ANDAll([]uint32{0xF0F0}); got != 0xF0F0 {
		t.Errorf("ANDAll single = %#x", got)
	}
	if got := ANDAll([]uint32{0xFF00, 0x0FF0}); got != 0x0F00 {
		t.Errorf("ANDAll pair = %#x", got)
	}
}
