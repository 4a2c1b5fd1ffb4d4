package spaceproc

import (
	"spaceproc/internal/fault"
	"spaceproc/internal/perm"
)

// Constant-memory fault campaigns: a seeded, cycle-walking Feistel
// permutation (internal/perm) enumerates fault sites as the prefix of a
// keyed permutation of the bit domain — O(1) memory, reproducible from
// (seed, rounds), and exactly shardable — and the campaign engine
// (internal/fault) expands permuted anchors through correlated upset
// models and injects or summarizes them at planetary scale.
type (
	// FeistelPerm is a keyed permutation of [0, N); see NewFeistelPerm.
	FeistelPerm = perm.Perm
	// PermShard enumerates one shard of a permutation in O(1) memory.
	PermShard = perm.ShardIter
	// FaultCampaign is a constant-memory injection plan: a budget of
	// anchor sites drawn through the permutation and expanded through a
	// CampaignModel.
	FaultCampaign = fault.Campaign
	// CampaignModel expands a permuted anchor into the bit flips of one
	// fault event.
	CampaignModel = fault.SiteModel
	// CampaignGeometry describes the bit domain a campaign runs over.
	CampaignGeometry = fault.Geometry
	// SingleBit flips exactly the anchor bit (the exact-count analogue of
	// Uncorrelated).
	SingleBit = fault.SingleBit
	// BurstRun is the MBU model: a run of consecutive flips per anchor.
	BurstRun = fault.BurstRun
	// ColumnWipe is the SEFI model: the anchor's whole column dies within
	// its frame.
	ColumnWipe = fault.ColumnWipe
	// FlipSet is the order-independent constant-memory summary of a
	// campaign's flips (toggle count + position digest).
	FlipSet = fault.FlipSet
)

// DefaultPermRounds is the Feistel round count used when 0 is passed.
const DefaultPermRounds = perm.DefaultRounds

// NewFeistelPerm builds the keyed permutation of [0, n); rounds 0 selects
// DefaultPermRounds.
func NewFeistelPerm(n, seed uint64, rounds int) (*FeistelPerm, error) {
	return perm.New(n, seed, rounds)
}

// SeriesCampaignGeometry is the bit domain of a temporal series.
func SeriesCampaignGeometry(s Series) CampaignGeometry { return fault.SeriesGeometry(s) }

// StackCampaignGeometry is the bit domain of a readout stack.
func StackCampaignGeometry(s *Stack) CampaignGeometry { return fault.StackGeometry(s) }

// CubeCampaignGeometry is the bit domain of a spectral cube.
func CubeCampaignGeometry(c *Cube) CampaignGeometry { return fault.CubeGeometry(c) }
