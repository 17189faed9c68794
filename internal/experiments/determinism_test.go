//go:build !race

// Determinism is a property of the values rendered, not of memory
// ordering, and it re-runs every experiment: the race job, which runs
// each of them through the other tests at several times the cost, skips
// this file.

package experiments

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/incbench_all.golden from this build")

// Every experiment is a pure function of its seeds — nothing the live
// handlers and tiers read from the wall clock (expiry epochs, the tiers'
// own rate meters, measured shift durations) may reach a table. Rendered
// twice in one process, the shared copy and a second, independent run,
// each must come out byte-identical.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first := table(t, e.ID).Render()
			if again := e.Run().Render(); again != first {
				t.Errorf("%s rendered differently the second time:\n%s\n--- vs ---\n%s", e.ID, first, again)
			}
		})
	}
}

// `incbench all` must print what testdata/incbench_all.golden holds: a
// refactor that is meant to leave the figures alone leaves every byte of
// them alone, and one that means to move a number shows which in the
// diff of that file (go test ./internal/experiments -run Golden -update).
func TestTablesMatchGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden file was rendered on amd64; fused multiply-add may round differently here")
	}
	const path = "testdata/incbench_all.golden"
	all := All()
	rendered := make([]string, len(all))
	t.Run("render", func(t *testing.T) {
		for i, e := range all {
			t.Run(e.ID, func(t *testing.T) {
				t.Parallel()
				rendered[i] = table(t, e.ID).Render() + "\n"
			})
		}
	})
	got := strings.Join(rendered, "")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("the tables render to %d lines, %s has %d", len(gotLines), path, len(wantLines))
}
