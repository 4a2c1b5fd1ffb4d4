package core

import (
	"testing"

	"spaceproc/internal/dataset"
)

func TestProcessSeriesStatsCountsCorrections(t *testing.T) {
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := make(dataset.Series, 64)
	for i := range s {
		s[i] = 27000
	}
	s[10] ^= 1 << 14
	s[40] ^= 1 << 13

	var stats VoteStats
	a.ProcessSeriesScratch(s, nil, &stats)
	if stats.Series != 1 {
		t.Fatalf("Series = %d", stats.Series)
	}
	if stats.Corrected != 2 {
		t.Fatalf("Corrected = %d, want 2", stats.Corrected)
	}
	if stats.BitsWindowA+stats.BitsWindowB != 2 {
		t.Fatalf("window bits = %d + %d, want 2 total", stats.BitsWindowA, stats.BitsWindowB)
	}
	if s[10] != 27000 || s[40] != 27000 {
		t.Fatal("repairs not applied")
	}
}

func TestProcessSeriesStatsGuardCounter(t *testing.T) {
	// On turbulent clean data at max sensitivity the guard must be seen
	// rejecting candidates.
	a, err := NewAlgoNGST(NGSTConfig{Upsilon: 4, Sensitivity: 100})
	if err != nil {
		t.Fatal(err)
	}
	var stats VoteStats
	for trial := uint64(0); trial < 30; trial++ {
		ser := gaussianSeries(t, 500, 8100+trial)
		a.ProcessSeriesScratch(ser, nil, &stats)
	}
	if stats.Series != 30 {
		t.Fatalf("Series = %d", stats.Series)
	}
	if stats.GuardRejected == 0 {
		t.Fatal("guard never rejected a candidate on turbulent data at Lambda=100")
	}
}

func TestVoteStatsAdd(t *testing.T) {
	a := VoteStats{Series: 1, Corrected: 2, BitsWindowA: 3, BitsWindowB: 4, GuardRejected: 5, WindowCBit: 9}
	b := VoteStats{Series: 10, Corrected: 20, BitsWindowA: 30, BitsWindowB: 40, GuardRejected: 50, WindowCBit: 7}
	a.Add(b)
	if a.Series != 11 || a.Corrected != 22 || a.BitsWindowA != 33 || a.BitsWindowB != 44 || a.GuardRejected != 55 {
		t.Fatalf("Add result %+v", a)
	}
	if a.WindowCBit != 7 {
		t.Fatalf("WindowCBit should take the latest value, got %d", a.WindowCBit)
	}
}

func TestStatsNilSafe(t *testing.T) {
	a, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := gaussianSeries(t, 250, 9999)
	a.ProcessSeriesScratch(s, nil, nil) // must not panic
}
