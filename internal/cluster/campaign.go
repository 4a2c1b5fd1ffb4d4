package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"spaceproc/internal/fault"
)

// Fault-campaign scheduling. A fault.Campaign shards perfectly — shard k
// of W enumerates a disjoint slice of the site set in O(1) memory — so
// the pool can spread a planetary-scale injection sweep across its
// members the same way it spreads tiles, without materializing a single
// position. Each shard folds into a fault.FlipSet; the merge is
// order-independent, so the aggregate is bit-identical to a sequential
// enumeration no matter how workers interleave.

// CampaignShard names one shard of a constant-memory fault campaign.
type CampaignShard struct {
	// Campaign is the sharded plan; all shards carry the identical value.
	Campaign fault.Campaign
	// Geom is the bit domain the campaign runs over.
	Geom fault.Geometry
	// Shard and Shards select this worker's slice of the site set:
	// logical permutation indices Shard, Shard+Shards, Shard+2*Shards...
	Shard, Shards int
}

// CampaignRunner is the optional worker capability for fault-campaign
// enumeration: workers that implement it run campaign shards locally; the
// pool runs the shards of any that do not on the master instead.
type CampaignRunner interface {
	RunCampaignShard(ctx context.Context, s CampaignShard) (fault.FlipSet, error)
}

// RunCampaignShard enumerates the shard into a FlipSet on the worker,
// checking ctx between anchor batches.
func (w *LocalWorker) RunCampaignShard(ctx context.Context, s CampaignShard) (fault.FlipSet, error) {
	return s.Campaign.Summarize(ctx, s.Geom, s.Shard, s.Shards)
}

var _ CampaignRunner = (*LocalWorker)(nil)

// RunCampaign enumerates a fault campaign over geom, sharded across the
// pool's campaign-capable workers, and returns the merged FlipSet.
// shards <= 0 uses one shard per capable worker (or one per DefaultWorkers
// slice on an empty pool). Shards are assigned round-robin over the
// capable members in admission order; members without the capability are
// skipped, and with none present every shard runs on the caller's
// goroutine pool instead — the result is bit-identical either way, only
// the wall-clock changes.
//
// Unlike Submit, campaigns bypass the tile queue and breaker: a shard is
// pure deterministic computation with no per-worker state to protect, and
// a failed shard fails the campaign (the first error aborts the rest via
// ctx).
func (p *Pool) RunCampaign(ctx context.Context, c fault.Campaign, geom fault.Geometry, shards int) (fault.FlipSet, error) {
	if err := c.Validate(); err != nil {
		return fault.FlipSet{}, err
	}
	if err := geom.Validate(); err != nil {
		return fault.FlipSet{}, err
	}
	runners := p.campaignRunners()
	if shards <= 0 {
		shards = len(runners)
		if shards == 0 {
			shards = DefaultWorkers
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total fault.FlipSet
		errs  []error
	)
	for k := 0; k < shards; k++ {
		spec := CampaignShard{Campaign: c, Geom: geom, Shard: k, Shards: shards}
		run := func(ctx context.Context, s CampaignShard) (fault.FlipSet, error) {
			return s.Campaign.Summarize(ctx, s.Geom, s.Shard, s.Shards)
		}
		if len(runners) > 0 {
			run = runners[k%len(runners)].RunCampaignShard
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := run(ctx, spec)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("cluster: campaign shard %d/%d: %w", spec.Shard, spec.Shards, err))
				cancel()
				return
			}
			total.Merge(fs)
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return fault.FlipSet{}, errors.Join(errs...)
	}
	if p.tel != nil {
		p.tel.Counter("fault_campaign_runs_total").Inc()
		p.tel.Counter("fault_campaign_shards_total").Add(int64(shards))
		p.tel.Counter("fault_campaign_sites_total").Add(int64(c.Budget(geom.Bits)))
		p.tel.Counter("fault_campaign_flips_total").Add(int64(total.Flips))
	}
	return total, nil
}

// campaignRunners snapshots the pool members that implement
// CampaignRunner, in admission order so shard assignment is stable for a
// given membership.
func (p *Pool) campaignRunners() []CampaignRunner {
	p.mu.Lock()
	defer p.mu.Unlock()
	members := make([]*poolWorker, 0, len(p.workers))
	for _, pw := range p.workers {
		members = append(members, pw)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].seq < members[j].seq })
	out := make([]CampaignRunner, 0, len(members))
	for _, pw := range members {
		if r, ok := pw.w.(CampaignRunner); ok {
			out = append(out, r)
		}
	}
	return out
}
