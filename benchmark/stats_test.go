package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {10, 10}, {0, 10}, {100, 100}, {55, 60}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if !near(q1, 3.5) || !near(q2, 13.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	// (31 - 3.5) / 13.5
	if got := spread([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}); !near(got, 27.5/13.5) {
		t.Errorf("spread = %v", got)
	}
}

// A slow spell of the host raises the daemon's and the echo's figure of
// the cycles it covers alike; the ratio does not move, and a cycle the
// spell cut in half moves one ratio, not the median.
func TestOverEchoDividesOutTheHost(t *testing.T) {
	m := &measured{}
	for i, slow := range []float64{1, 1, 1.6, 1.6, 1, 1.5, 1} {
		cy := cycle{p50Us: 60 * slow, echoP50Us: 40 * slow, kpps: 200 / slow, echoKpps: 100 / slow}
		if i == 4 {
			cy.echoP50Us, cy.echoKpps = 40*1.6, 100/1.6 // the spell began between the two slices
		}
		m.cycles = append(m.cycles, cy)
	}
	p50 := m.overEcho(func(c cycle) float64 { return c.p50Us }, func(c cycle) float64 { return c.echoP50Us })
	kpps := m.overEcho(func(c cycle) float64 { return c.kpps }, func(c cycle) float64 { return c.echoKpps })
	if !near(p50, 1.5) || !near(kpps, 2) {
		t.Errorf("ratios = %v, %v; want 1.5, 2", p50, kpps)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	root := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 130}, // 20 inside
		{Start: 120, End: 140}, // overlaps the first: 10 more
		{Start: 90, End: 105},  // sticks out at the front: 5 inside
		{Start: 190, End: 250}, // sticks out at the back: 10 inside
		{Start: 300, End: 400}, // outside entirely, like the read that fed the turn
	}
	if got := selfTime(root, kids); got != 100-45 {
		t.Errorf("self time = %d, want 55", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestSummarizeAttributesByTurnAndEpoch(t *testing.T) {
	spans := []span{
		{Name: spRead, Epoch: 1, Turn: 1, N: 4, Start: 0, End: 40},
		{Name: spTier, Epoch: 1, Turn: 1, N: 4, Start: 45, End: 55},
		{Name: spHandler, Epoch: 1, Turn: 1, N: 2, Start: 60, End: 90},
		{Name: spWrite, Epoch: 1, Turn: 1, N: 4, Start: 95, End: 135},
		{Name: spTurn, Epoch: 1, Turn: 1, N: 4, Start: 40, End: 140},
		{Name: spWarm, Epoch: 1, Start: 500, End: 900},
		{Name: spRead, Epoch: 2, Turn: 2, N: 8, Start: 1000, End: 1080},
		{Name: spTurn, Epoch: 2, Turn: 2, N: 8, Start: 1080, End: 1100},
	}
	sums := summarize(spans)
	e1 := sums[1]
	if e1.Turns != 1 || e1.Packets != 4 || e1.TurnNs != 100 || e1.TierNs != 10 || e1.HandNs != 30 || e1.WriteNs != 40 || e1.SelfNs != 20 {
		t.Errorf("epoch 1 sums wrong: %+v", *e1)
	}
	if got := e1.Shift["nictier.warm"]; len(got) != 1 || got[0] != 400 {
		t.Errorf("warm span = %v, want [400]", got)
	}
	if e2 := sums[2]; e2.SelfNs != 20 || e2.ReadMedNsPkt != 10 {
		t.Errorf("epoch 2 sums wrong: %+v", *e2)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMain(m *testing.M) {
	if err := loadSpec("../BENCHMARK.json"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONIsWellFormed checks BENCHMARK.json against the
// driver's limits and against the program: the same workloads in the
// same order, legal and unique names, bounds in range, setup_s first.
// Metric names need no list of their own to be checked against: the
// harness panics on a metric the file does not list and refuses to print
// a run that lacks one it does (result.set, result.complete).
func TestBenchmarkJSONIsWellFormed(t *testing.T) {
	bf := benchSpec
	raw, _ := os.ReadFile("../BENCHMARK.json")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 || len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json must be at most 64 KiB with exactly six keys; %d bytes, %d keys (%v)", len(raw), len(keys), err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a reason that is empty or over 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, ms []metricSpec, bounded bool) {
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %q: unit %q, better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s metric %q carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, true)
	check("per_layer", bf.PerLayer, false)
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m := bf.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower")
	}
	// The driver makes 4 + 22×workloads runs inside 3420 s; a traced run,
	// the longer kind, takes about 28 s at the file's run_seconds.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*28 > 3420 {
		t.Errorf("%d runs of about 28 s do not fit in 3420 s", runs)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "capacity_kpps", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		b    []float64
		m    metricSpec
		want verdict
	}{
		{"same", []float64{101, 100, 100, 99, 102}, lower, verdictOK},
		{"within bound", []float64{108, 109, 107, 108, 110}, lower, verdictOK},
		{"better", []float64{50, 51, 49, 50, 52}, lower, verdictOK},
		{"worse, tight", []float64{120, 121, 119, 120, 122}, lower, verdictWorse},
		{"lower is worse when higher is better", []float64{80, 81, 79, 80, 82}, higher, verdictWorse},
		{"higher is fine when higher is better", []float64{120, 121, 119, 120, 122}, higher, verdictOK},
		{"worse median but wide and overlapping", []float64{95, 150, 100, 130, 112}, lower, verdictUnresolved},
		{"wide but every run worse", []float64{115, 170, 120, 150, 132}, lower, verdictWorse},
	} {
		if got := judge(a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
