package sweep

import "testing"

// TestFigPoolMasksWorkerFaults pins the experiment's claim: however often
// the crashy node fails — up to failing every tile — the pooled pipeline's
// output stays bit-identical to the fault-free reference (Psi exactly 0),
// and a node that fails every tile gets its circuit opened.
func TestFigPoolMasksWorkerFaults(t *testing.T) {
	cfg := DefaultPoolSweepConfig()
	cfg.Trials = 2
	res, err := FigPool(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range poolFaultAxis {
		psi, ok := res.Get("MeanPsi", pf)
		if !ok {
			t.Fatalf("MeanPsi missing point at pf=%v", pf)
		}
		if psi != 0 {
			t.Fatalf("worker faults leaked into the science at pf=%v: Psi=%v", pf, psi)
		}
	}
	if opens, ok := res.Get("CircuitOpens", 1); !ok || opens < 1 {
		t.Fatalf("always-failing node never tripped its circuit: opens=%v ok=%v", opens, ok)
	}
	if _, ok := res.SeriesByName("MeanRetries"); !ok {
		t.Fatal("MeanRetries series missing")
	}
}

func TestPoolSweepConfigValidate(t *testing.T) {
	good := DefaultPoolSweepConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	for _, mutate := range []func(*PoolSweepConfig){
		func(c *PoolSweepConfig) { c.Trials = 0 },
		func(c *PoolSweepConfig) { c.Workers = 0 },
		func(c *PoolSweepConfig) { c.TileSize = -1 },
		// One 64x64 tile per point: the three held healthy workers would
		// park it and the crashy node would never see a tile.
		func(c *PoolSweepConfig) { c.Trials, c.TileSize = 1, 64 },
	} {
		bad := DefaultPoolSweepConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("mutation %+v should be invalid", bad)
		}
	}
}
