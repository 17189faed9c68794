//go:build !race

// Determinism is a property of the values rendered, not of memory
// ordering, and it re-runs every experiment: the race job, which runs
// each of them through the other tests at several times the cost, skips
// this file.

package experiments

import "testing"

// Every experiment is a pure function of its seeds — nothing the live
// handlers and tiers read from the wall clock (expiry epochs, the tiers'
// own rate meters, measured shift durations) may reach a table. Rendered
// twice in one process, each must come out byte-identical.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first := e.Run().Render()
			if again := e.Run().Render(); again != first {
				t.Errorf("%s rendered differently the second time:\n%s\n--- vs ---\n%s", e.ID, first, again)
			}
		})
	}
}
