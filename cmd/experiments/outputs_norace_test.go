//go:build !race

package main

import "testing"

// TestFig9OutputReproduces checks the fig9 tables of
// experiments_output.txt. It takes seconds normally but about a minute
// under the race detector (nearly all of it in the correlated fault
// model's math.Pow), so race builds skip it.
func TestFig9OutputReproduces(t *testing.T) {
	want := splitTables(t, readOutput(t, "experiments_output.txt"))
	got := splitTables(t, runExperiments(t, "fig9"))
	if len(got) == 0 {
		t.Fatal("fig9 produced no tables")
	}
	diffTables(t, "experiments_output.txt", want, got)
}
