package experiments

import (
	"sync"
	"testing"
)

// shared runs each experiment at most once per test binary, on first
// use: the render, golden, validation and shape tests all read that one
// copy, and only TestExperimentsDeterministic renders a second,
// independent one to compare with it. This file has no build tag, so
// the race job shares the copy too.
var shared = sync.OnceValue(func() map[string]func() *Table {
	runs := map[string]func() *Table{}
	for _, e := range All() {
		runs[e.ID] = sync.OnceValue(e.Run)
	}
	return runs
})

// table returns experiment id's shared render. Tests only read it.
func table(t *testing.T, id string) *Table {
	t.Helper()
	run, ok := shared()[id]
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return run()
}
