package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: spaceproc
cpu: Imaginary Octo Core 3000
BenchmarkVote/lambda=80-8         1201    987654 ns/op    120 B/op    3 allocs/op
BenchmarkPipeline-8                 10   1.5e+08 ns/op
PASS
ok      spaceproc       2.1s
`

func TestParseSample(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-echo=false"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	r := doc.Benchmarks[0]
	if r.Name != "BenchmarkVote/lambda=80-8" || r.Iterations != 1201 ||
		r.NsPerOp != 987654 || r.BytesPerOp != 120 || r.AllocsPerOp != 3 {
		t.Fatalf("bad record: %+v", r)
	}
	if doc.Benchmarks[1].NsPerOp != 1.5e8 || doc.Benchmarks[1].BytesPerOp != 0 {
		t.Fatalf("bad record: %+v", doc.Benchmarks[1])
	}
	// Parsed headers override the runtime fallback; the rest of the meta
	// block comes from the converting process.
	m := doc.Meta
	if m.GOOS != "linux" || m.GOARCH != "amd64" || m.CPU != "Imaginary Octo Core 3000" {
		t.Fatalf("bad parsed meta: %+v", m)
	}
	if m.GoVersion != runtime.Version() || m.GOMAXPROCS < 1 || m.NumCPU < 1 {
		t.Fatalf("bad runtime meta: %+v", m)
	}
}

func TestOutFile(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-out", path}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "BenchmarkVote") {
		t.Fatal("echo suppressed unexpectedly")
	}
	var doc document
	data := readFile(t, path)
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("file is not JSON: %v", err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d records, want 2", len(doc.Benchmarks))
	}
}

func TestEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-echo=false"}, strings.NewReader("PASS\n"), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Benchmarks == nil || len(doc.Benchmarks) != 0 {
		t.Fatalf("want empty benchmarks array, got %+v", doc.Benchmarks)
	}
	if doc.Meta.GoVersion == "" {
		t.Fatalf("meta missing: %+v", doc.Meta)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkVote/lambda=80-8": "BenchmarkVote/lambda=80",
		"BenchmarkVote/lambda=80":   "BenchmarkVote/lambda=80",
		"BenchmarkPipeline-16":      "BenchmarkPipeline",
		"BenchmarkPipeline":         "BenchmarkPipeline",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Fatalf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCompareSpeedupAndLegacy drives -compare with two artifacts captured
// at different GOMAXPROCS, the old one carrying only the gomaxprocs field
// of its meta block (as the oldest committed artifact does), checking the
// speedup report and exit status.
func TestCompareSpeedupAndLegacy(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/old.json", `{"meta":{"gomaxprocs":8},"benchmarks":[
 {"name":"BenchmarkVote-8","iterations":100,"ns_per_op":6000},
 {"name":"BenchmarkOldOnly-8","iterations":100,"ns_per_op":50}
]}`)
	writeFile(t, dir+"/new.json", `{"meta":{"go_version":"go1.24.0"},"benchmarks":[
 {"name":"BenchmarkVote-16","iterations":100,"ns_per_op":1000},
 {"name":"BenchmarkNewOnly-16","iterations":100,"ns_per_op":70}
]}`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-compare", dir + "/old.json", dir + "/new.json"}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "6.00x faster") {
		t.Fatalf("speedup not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "OldOnly") || strings.Contains(out.String(), "NewOnly") {
		t.Fatalf("unpaired benchmarks reported:\n%s", out.String())
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/old.json", `{"benchmarks":[
 {"name":"BenchmarkA-8","iterations":100,"ns_per_op":1000},
 {"name":"BenchmarkB-8","iterations":100,"ns_per_op":1000}
]}`)
	writeFile(t, dir+"/new.json", `{"benchmarks":[
 {"name":"BenchmarkA-8","iterations":100,"ns_per_op":1050},
 {"name":"BenchmarkB-8","iterations":100,"ns_per_op":1500}
]}`)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-compare", dir + "/old.json", dir + "/new.json"}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("regression not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "BenchmarkB") {
		t.Fatalf("regression report missing:\n%s", out.String())
	}
	if strings.Count(out.String(), "REGRESSION") != 1 {
		t.Fatalf("5%% slowdown misflagged at default threshold:\n%s", out.String())
	}

	// The same pair passes at a 60% threshold.
	out.Reset()
	if err := run(context.Background(), []string{"-compare", "-threshold", "60", dir + "/old.json", dir + "/new.json"}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("threshold=60 still failed: %v\n%s", err, out.String())
	}
}

func TestCompareNoOverlap(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/old.json", `{"benchmarks":[{"name":"BenchmarkA-8","iterations":1,"ns_per_op":10}]}`)
	writeFile(t, dir+"/new.json", `{"benchmarks":[{"name":"BenchmarkZ-8","iterations":1,"ns_per_op":10}]}`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-compare", dir + "/old.json", dir + "/new.json"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("disjoint artifacts compared successfully")
	}
}

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-version"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "benchjson ") {
		t.Fatalf("version output %q", out.String())
	}
}
