package cluster

import (
	"context"
	"errors"
	"testing"

	"spaceproc/internal/crreject"
	"spaceproc/internal/fault"
	"spaceproc/internal/telemetry"
)

func newCampaignPool(t *testing.T, workers int, reg *telemetry.Registry) *Pool {
	t.Helper()
	opts := []PoolOption{}
	if reg != nil {
		opts = append(opts, WithPoolTelemetry(reg))
	}
	pool, err := NewPool(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	for i := 0; i < workers; i++ {
		w, err := NewLocalWorker(nil, crreject.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pool.AddWorker(w)
	}
	return pool
}

// TestPoolRunCampaignShardInvariance is the cluster half of the
// acceptance gate: a billion-site campaign fanned across >= 4 pool
// workers must aggregate to the bit-identical flip set of a sequential
// enumeration, and replaying the identical (seed, rounds, shard plan)
// must reproduce it.
func TestPoolRunCampaignShardInvariance(t *testing.T) {
	geom := fault.Geometry{Bits: 1 << 30, RowBits: 1 << 19, FrameBits: 1 << 30}
	c := fault.Campaign{Count: 100_000, Seed: 7, Model: fault.BurstRun{Length: 3}}
	seq, err := c.Summarize(context.Background(), geom, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	pool := newCampaignPool(t, 4, reg)
	for _, shards := range []int{4, 16} {
		got, err := pool.RunCampaign(context.Background(), c, geom, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got != seq {
			t.Fatalf("shards=%d: pool aggregate %+v != sequential %+v", shards, got, seq)
		}
	}
	replay, err := pool.RunCampaign(context.Background(), c, geom, 4)
	if err != nil {
		t.Fatal(err)
	}
	if replay != seq {
		t.Fatalf("replay %+v != sequential %+v", replay, seq)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fault_campaign_runs_total"]; got != 3 {
		t.Errorf("fault_campaign_runs_total = %d, want 3", got)
	}
	if got := snap.Counters["fault_campaign_shards_total"]; got != 4+16+4 {
		t.Errorf("fault_campaign_shards_total = %d, want 24", got)
	}
	if got := snap.Counters["fault_campaign_sites_total"]; got != 3*100_000 {
		t.Errorf("fault_campaign_sites_total = %d, want 300000", got)
	}
	if got := snap.Counters["fault_campaign_flips_total"]; got != int64(3*seq.Flips) {
		t.Errorf("fault_campaign_flips_total = %d, want %d", got, 3*seq.Flips)
	}
}

func TestPoolRunCampaignDefaultsAndEmptyPool(t *testing.T) {
	geom := fault.Geometry{Bits: 1 << 16}
	c := fault.Campaign{Count: 1000, Seed: 11}
	seq, err := c.Summarize(context.Background(), geom, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// shards <= 0 selects one shard per pool worker.
	pool := newCampaignPool(t, 5, nil)
	got, err := pool.RunCampaign(context.Background(), c, geom, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != seq {
		t.Fatalf("auto-sharded aggregate %+v != sequential %+v", got, seq)
	}
	// An empty pool runs DefaultWorkers shards with the same result.
	empty, err := NewPool()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	got, err = empty.RunCampaign(context.Background(), c, geom, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != seq {
		t.Fatalf("empty-pool aggregate %+v != sequential %+v", got, seq)
	}
}

func TestPoolRunCampaignValidatesAndCancels(t *testing.T) {
	pool := newCampaignPool(t, 2, nil)
	if _, err := pool.RunCampaign(context.Background(), fault.Campaign{Rate: 5}, fault.Geometry{Bits: 10}, 2); err == nil {
		t.Error("invalid campaign must error")
	}
	if _, err := pool.RunCampaign(context.Background(), fault.Campaign{Count: 1}, fault.Geometry{}, 2); err == nil {
		t.Error("invalid geometry must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pool.RunCampaign(ctx, fault.Campaign{Count: 1 << 20}, fault.Geometry{Bits: 1 << 40}, 4)
	if err == nil {
		t.Fatal("cancelled campaign must error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in %v", err)
	}
}
