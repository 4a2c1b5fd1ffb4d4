// Command perfbench is the repository's benchmark: one command that runs a
// named workload for a fixed window and prints its end-to-end metrics, or,
// with --trace 1, its per-layer metrics and a Chrome trace.
//
//	bash perfbench/run.sh --workload ngst-baseline --seed 1 --seconds 10 --trace 0
//
// The inputs and their reference outputs are generated from --seed before
// any clock starts, and the system is built only through its public
// constructors, so it receives nothing but the generated inputs. Every
// op's output is compared bit for bit with its reference; a mismatch
// counts as a failed op and makes the command exit non-zero. Each metric
// prints on its own line with its unit and sample count, and the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. README.md describes the workloads and
// metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spaceproc/internal/cluster"
)

// workloads maps each workload name to the constructor that generates its
// inputs and references from the run's seed.
var workloads = map[string]func(runConfig) (bench, error){
	"ngst-baseline": newNGSTBench,
	"otis-cube":     newOTISBench,
	"serve-ingest":  func(cfg runConfig) (bench, error) { return newServeBench(cfg, false) },
	"serve-repeat":  func(cfg runConfig) (bench, error) { return newServeBench(cfg, true) },
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed   uint64
	window time.Duration
	trace  bool
	// workers is the pool size: one LocalWorker per CPU, since all load
	// comes from this one process.
	workers int
	// dir is a scratch directory inside the checkout for WAL directories.
	dir string
	// wrapWorker, when set, wraps every pool worker; tests use it to plant
	// a worker that returns wrong bits.
	wrapWorker func(cluster.Worker) cluster.Worker
}

// buildDir holds everything a run leaves behind: the binary, the Go build
// cache, scratch directories and trace files.
const buildDir = ".bench_build"

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs one workload and prints its report. It
// returns the exit code: 0 when every op was correct, 1 when an op failed
// or the run could not complete, 2 on bad flags.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 the per-layer metrics, and writes a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	newBench, ok := workloads[*name]
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds <= 0:
		return 2, errors.New("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return 2, errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 1, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		dir:     dir,
	}
	b, err := newBench(cfg)
	if err != nil {
		return 1, err
	}
	rep, err := runBench(b, cfg)
	if err != nil {
		return 1, err
	}
	rep.notes = append([]string{fmt.Sprintf("workload %s seed %d window %s trace %d workers %d",
		*name, *seed, cfg.window, *trace, cfg.workers)}, rep.notes...)
	if rep.tracer != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := rep.tracer.WriteTraceFile(path); err != nil {
			return 1, err
		}
		rep.notes = append(rep.notes, "chrome trace written to "+path)
	}
	if err := rep.write(out); err != nil {
		return 1, err
	}
	if !rep.correct {
		return 1, errors.New("outputs differ from their references")
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
