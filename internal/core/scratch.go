package core

import (
	"spaceproc/internal/dataset"
)

// VoteScratch holds every buffer the voter passes need, so a warm scratch
// lets ProcessStackPlanes (and AlgoNGST's per-series ProcessSeriesScratch)
// run with zero steady-state heap allocations. One scratch serves any
// series length and any Upsilon: the buffers grow to the largest series
// seen and are reused thereafter.
//
// A VoteScratch is NOT safe for concurrent use; give each goroutine its
// own (the cluster workers keep a pool and hand one to each range shard).
// The zero value is ready to use.
type VoteScratch struct {
	// vals is the series widened to the voter's uint32 payload.
	vals []uint32
	// corr is the correction vector returned by correctTemporalScratch;
	// it is owned by the scratch and overwritten by the next pass.
	corr []uint32
	// ways and wayBuf hold the per-way XOR value sets: ways[d-1] is a
	// window into wayBuf, so the whole voter matrix is one allocation.
	ways   [][]uint32
	wayBuf []uint32
	// vvals holds the per-way pruning cut-offs.
	vvals []uint32
	// sortBuf is the descending-sort workspace of wayThresholdBuf.
	sortBuf []uint32
	// phis and neigh collect one pixel's surviving voters and consulted
	// neighbor values.
	phis, neigh []uint32
	// ser16 is a uint16 workspace (MajorityBit3's vote-against-original
	// snapshot).
	ser16 dataset.Series
	// stats stages the per-series counters when an algorithm fans them
	// out to both a caller collector and registry counters.
	stats VoteStats

	// Plane-major kernel workspaces (planes.go).

	// lanes64 is the lane-major staging block the series path transposes
	// in place.
	lanes64 [64]uint64
	// plane64 is the single backing buffer the plane workspaces below are
	// carved from (one allocation for the whole kernel).
	plane64 []uint64
	// xplanes holds the per-way XOR bit planes (half ways x width words).
	xplanes []uint64
	// hib is the suffix-OR workspace of the threshold popcount scan.
	hib []uint64
	// pms holds the per-way prune keep-masks.
	pms []uint64
	// voters64 holds the substituted voter words of one bit plane.
	voters64 []uint64
	// cplanes holds the candidate correction planes of one pixel.
	cplanes []uint64
	// planeLSB and planeMSB stash the window masks of the most recent
	// planeVote for candidate finalization.
	planeLSB, planeMSB uint32
	// ps is the 64-pixel plane-major gather window of the stack path.
	ps *dataset.PlaneStack
	// rser is the series buffer of AlgoNGST's scalar range pass.
	rser dataset.Series
	// majA/majB/majC are MajorityBit3's rotating original-frame chunks.
	majA, majB, majC dataset.Series
}

// NewVoteScratch returns an empty scratch. Equivalent to new(VoteScratch);
// it exists so the facade can mint one without exposing the fields.
func NewVoteScratch() *VoteScratch { return new(VoteScratch) }

// Corrections returns the scratch's current correction vector (the result
// of the most recent pass), for tests that compare scratch and allocating
// paths.
func (sc *VoteScratch) Corrections() []uint32 { return sc.corr }

// growU32 returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// growF64 is growU32 for float64 buffers.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
