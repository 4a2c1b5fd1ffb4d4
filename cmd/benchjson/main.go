// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document holding a machine-context meta block (go
// version, OS/arch, CPU model, GOMAXPROCS) and one benchmark record per
// result line with the name, iteration count, ns/op, and — when -benchmem
// was on — B/op and allocs/op. `make bench` pipes through it to produce
// the dated BENCH_<date>.json artifacts tracked alongside EXPERIMENTS.md.
//
// With -compare, benchjson stops reading stdin and instead diffs two
// recorded artifacts:
//
//	benchjson -compare [-threshold PCT] old.json new.json
//
// printing the per-benchmark ns/op speedup (or slowdown) for every name
// present in both files — GOMAXPROCS name suffixes are normalized away so
// artifacts from different machines line up — and exiting non-zero when
// any benchmark regressed by more than the threshold (default 10%).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"

	"spaceproc/internal/cmdutil"
	"spaceproc/internal/telemetry"
)

// record is one parsed benchmark result line.
type record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// meta records the machine context a benchmark artifact was captured on,
// so numbers are comparable (or visibly not) across sessions. goos, goarch
// and cpu are parsed from the benchmark text header when present and fall
// back to the converting process's runtime, which is the same machine for
// the `make bench` pipeline.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// document is the JSON artifact: machine context plus the records.
type document struct {
	Meta       meta     `json:"meta"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	ctx, stop := cmdutil.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		telemetry.NewLogger(os.Stderr, slog.LevelInfo).
			Error("run failed", "cmd", "benchjson", "err", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, in io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the JSON document to this file instead of stdout")
	echo := fs.Bool("echo", true, "echo the raw benchmark text to stdout while parsing")
	compareMode := fs.Bool("compare", false, "compare two recorded artifacts (old.json new.json) instead of converting stdin")
	threshold := fs.Float64("threshold", 10, "with -compare, fail when any benchmark slows down by more than this percentage")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cmdutil.PrintVersion(stdout, "benchjson")
		return nil
	}
	if *compareMode {
		if fs.NArg() != 2 {
			return fmt.Errorf("benchjson: -compare wants exactly two artifacts (old.json new.json), got %d args", fs.NArg())
		}
		return compare(fs.Arg(0), fs.Arg(1), *threshold, stdout)
	}

	doc := document{Meta: meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := sc.Text()
		if *echo {
			fmt.Fprintln(stdout, line)
		}
		if r, ok := parseLine(line); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
			continue
		}
		// goos/goarch/cpu headers repeat per package; any occurrence wins
		// (they describe the one machine the run happened on).
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			doc.Meta.GOOS = strings.TrimSpace(v)
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			doc.Meta.GOARCH = strings.TrimSpace(v)
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.Meta.CPU = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	if doc.Benchmarks == nil {
		doc.Benchmarks = []record{}
	}
	return enc.Encode(doc)
}

// parseLine recognizes benchmark result lines such as
//
//	BenchmarkVote/lambda=80-8   1201   987654 ns/op   120 B/op   3 allocs/op
//
// and ignores everything else (PASS, ok, goos headers, test logs).
func parseLine(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: fields[0], Iterations: iters}
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
				ok = true
			}
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return r, ok
}

// loadArtifact reads a recorded {meta, benchmarks} benchmark artifact.
func loadArtifact(path string) (document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return document{}, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return doc, nil
}

// normalizeName strips the trailing -N GOMAXPROCS suffix `go test` appends
// to benchmark names, so artifacts captured at different parallelism still
// pair up by name.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compare diffs the ns/op of every benchmark present in both artifacts and
// returns an error listing the benchmarks that slowed down by more than
// threshold percent.
func compare(oldPath, newPath string, threshold float64, w io.Writer) error {
	oldDoc, err := loadArtifact(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadArtifact(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]record, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldBy[normalizeName(r.Name)] = r
	}
	var regressions []string
	matched := 0
	for _, r := range newDoc.Benchmarks {
		name := normalizeName(r.Name)
		o, ok := oldBy[name]
		if !ok || o.NsPerOp <= 0 || r.NsPerOp <= 0 {
			continue
		}
		matched++
		if r.NsPerOp <= o.NsPerOp {
			fmt.Fprintf(w, "%-64s %14.1f -> %14.1f ns/op  (%.2fx faster)\n",
				name, o.NsPerOp, r.NsPerOp, o.NsPerOp/r.NsPerOp)
			continue
		}
		pct := (r.NsPerOp/o.NsPerOp - 1) * 100
		tag := ""
		if pct > threshold {
			tag = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %.1f -> %.1f ns/op (+%.1f%%)", name, o.NsPerOp, r.NsPerOp, pct))
		}
		fmt.Fprintf(w, "%-64s %14.1f -> %14.1f ns/op  (+%.1f%% slower)%s\n",
			name, o.NsPerOp, r.NsPerOp, pct, tag)
	}
	if matched == 0 {
		return fmt.Errorf("benchjson: no benchmark names in common between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%%:\n", len(regressions), threshold)
		for _, s := range regressions {
			fmt.Fprintf(w, "  %s\n", s)
		}
		return fmt.Errorf("benchjson: %d benchmark(s) regressed more than %.0f%%", len(regressions), threshold)
	}
	fmt.Fprintf(w, "\n%d benchmark(s) compared, none regressed more than %.0f%%\n", matched, threshold)
	return nil
}
