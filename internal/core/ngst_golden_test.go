package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"spaceproc/internal/dataset"
)

// ngstStackGoldenDigest is the FNV-64a digest of every repaired pixel and
// VoteStats field TestAlgoNGSTStackGolden produces. It pins AlgoNGST's
// stack pass exactly: perfbench's reference and the stack differential
// tests run the same plane kernel as the pass under test, so a change to
// how that kernel packs, thresholds or finalizes pixels has to reproduce
// this constant bit for bit.
const ngstStackGoldenDigest = 0x2613a7ffdfc95a67

// TestAlgoNGSTStackGolden runs ProcessStackPlanes over every depth the
// plane kernel's lane strides distinguish, pixel counts and sub-ranges off
// the 4-pixel group boundary, a spread of Upsilon and Lambda, and each
// ablation switch, and checks the digest of every output pixel and
// counter against ngstStackGoldenDigest.
func TestAlgoNGSTStackGolden(t *testing.T) {
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	switches := []NGSTConfig{
		{},
		{DisableQuorum: true},
		{DisableCarryGuard: true},
		{LiteralPhi: true},
		{StaticWindows: true, StaticLSB: 2, StaticMSB: 9},
	}
	// Each range is clamped to the stack, so the whole-stack range also
	// covers a trailing group of fewer than four pixels (13x5 = 65).
	ranges := [][2]int{{0, 1 << 30}, {1, 62}, {6, 7}, {3, 33}, {45, 65}}
	r := rand.New(rand.NewSource(22))
	runs := 0
	digest := func(s *dataset.Stack, st VoteStats) {
		for _, f := range s.Frames {
			for _, v := range f.Pix {
				put(uint64(v))
			}
		}
		put(uint64(st.Series))
		put(uint64(st.Corrected))
		put(uint64(st.BitsWindowA))
		put(uint64(st.BitsWindowB))
		put(uint64(st.GuardRejected))
		put(uint64(st.WindowCBit))
		runs++
	}
	def, err := NewAlgoNGST(DefaultNGSTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{3, 4, 9, 10, 12, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64} {
		// A stack several 64-pixel blocks wide, one scratch across two
		// ranges, at the default configuration.
		wide := damagedStack(r, depth, 23, 11)
		sc := NewVoteScratch()
		var wst VoteStats
		def.ProcessStackPlanes(wide, 5, 130, sc, &wst)
		def.ProcessStackPlanes(wide, 130, 251, sc, &wst)
		digest(wide, wst)

		src := damagedStack(r, depth, 13, 5)
		for _, upsilon := range []int{2, 4, 6, 8} {
			for _, lambda := range []int{1, 50, 80, 100} {
				for si, sw := range switches {
					cfg := sw
					cfg.Upsilon, cfg.Sensitivity = upsilon, lambda
					a, err := NewAlgoNGST(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Every switch sees the whole stack; the default
					// configuration also sees each sub-range.
					rs := ranges[:1]
					if si == 0 {
						rs = ranges
					}
					for _, pr := range rs {
						s := src.Clone()
						var st VoteStats
						a.ProcessStackPlanes(s, pr[0], pr[1], nil, &st)
						digest(s, st)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != ngstStackGoldenDigest {
		t.Fatalf("AlgoNGST stack digest over %d runs = %#x, want %#x", runs, got, uint64(ngstStackGoldenDigest))
	}
}
