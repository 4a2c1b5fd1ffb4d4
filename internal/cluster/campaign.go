package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"spaceproc/internal/fault"
)

// Fault-campaign scheduling. A fault.Campaign shards perfectly — shard k
// of W enumerates a disjoint slice of the site set in O(1) memory — so
// the pool can run a planetary-scale injection sweep as concurrent
// shards without materializing a single position. Each shard folds into
// a fault.FlipSet; the merge is order-independent, so the aggregate is
// bit-identical to a sequential enumeration no matter how shards
// interleave.

// RunCampaign enumerates a fault campaign over geom in shards, one
// goroutine each, and returns the merged FlipSet. shards <= 0 runs one
// shard per pool worker (DefaultWorkers on an empty pool). The result is
// bit-identical for every shard plan; only the wall-clock changes.
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
	if shards <= 0 {
		p.mu.Lock()
		shards = len(p.workers)
		p.mu.Unlock()
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := c.Summarize(ctx, geom, k, shards)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("cluster: campaign shard %d/%d: %w", k, shards, err))
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
