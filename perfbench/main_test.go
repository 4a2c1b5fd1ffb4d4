package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"spaceproc/internal/cluster"
	"spaceproc/internal/dataset"
)

// spec is the part of BENCHMARK.json the tests check the program against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []named `json:"end_to_end"`
	PerLayer []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPerLayerListMatchesSpec keeps the program's per-layer list and
// workloads in step with BENCHMARK.json.
func TestPerLayerListMatchesSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly in both modes through the command
// line and checks that each metric BENCHMARK.json names prints with its
// unit, with every op correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, mode := range []struct {
			trace string
			want  []named
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				var out bytes.Buffer
				code, err := run([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", mode.trace}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s (%s) missing or in %q", m.Name, m.Unit, got.Unit)
					}
				}
			})
		}
	}
}

// lyingWorker returns every tile with one output bit flipped.
type lyingWorker struct{ cluster.Worker }

func (l lyingWorker) ProcessTile(ctx context.Context, t dataset.Tile) (cluster.TileResult, error) {
	res, err := l.Worker.ProcessTile(ctx, t)
	if err == nil {
		res.Image.Pix[0] ^= 1
	}
	return res, err
}

func testConfig(t *testing.T) runConfig {
	return runConfig{seed: 3, window: time.Second, workers: 2, dir: t.TempDir()}
}

// TestLyingWorkerFails: a worker that returns wrong bits must show up as
// failed ops and an incorrect run.
func TestLyingWorkerFails(t *testing.T) {
	cfg := testConfig(t)
	cfg.wrapWorker = func(w cluster.Worker) cluster.Worker { return lyingWorker{w} }
	b, err := newNGSTBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runBench(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct || rep.failed == 0 {
		t.Fatalf("lying worker went unnoticed: correct %v, %d of %d failed", rep.correct, rep.failed, rep.attempted)
	}
}

// TestServeRepeatSkipsBackend: on serve-repeat every request is a dedupe
// hit, so during the window the backend sees no submission and the pool
// no tile.
func TestServeRepeatSkipsBackend(t *testing.T) {
	cfg := testConfig(t)
	cfg.trace = true
	b, err := newServeBench(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runBench(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct {
		t.Fatal("serve-repeat outputs differ from their references")
	}
	for name, want := range map[string]float64{
		"serve.backend_submits":  0,
		"cluster.tiles_per_op":   0,
		"cluster.busy_ratio":     0,
		"serve.dedupe_hit_ratio": 1,
		"serve.shed_ratio":       0,
	} {
		if got, _ := rep.value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
