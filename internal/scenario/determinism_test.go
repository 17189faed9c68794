//go:build !race

// Determinism is a property of the values rendered, not of memory
// ordering; the race job skips this file and its second runs.

package scenario

import "testing"

// A scenario is a pure function of its JSON: run twice in one process,
// each app's timeline comes out byte-identical.
func TestRunDeterministic(t *testing.T) {
	for _, s := range []Scenario{
		{App: "kvs", Policy: "threshold", Keys: 200,
			Profile: []Segment{{DurationS: 1, Kpps: 10}, {DurationS: 2, Kpps: 200}}},
		{App: "dns", Policy: "power", Keys: 50,
			Profile: []Segment{{DurationS: 1, Kpps: 20}, {DurationS: 2, Kpps: 300}}},
		{App: "paxos", Policy: "threshold", CrossoverKpps: 3,
			Profile: []Segment{{DurationS: 1, Kpps: 1}, {DurationS: 2, Kpps: 8}}},
	} {
		var out [2]string
		for i := range out {
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.CSV()
		}
		if out[0] != out[1] {
			t.Errorf("%s scenario rendered differently the second time:\n%s\n--- vs ---\n%s", s.App, out[0], out[1])
		}
	}
}
