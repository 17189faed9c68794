package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"asic", "crossover", "dynamo", "fig3a", "fig3b", "fig3c",
		"fig4", "fig5", "fig6", "fig7", "google", "infra", "latency",
		"memories", "opswatt", "place", "strategies", "tor", "validate", "xeon"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := ByID("fig4"); !ok {
		t.Error("ByID(fig4) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFig3aShape(t *testing.T) {
	tab := table(t, "fig3a")
	if len(tab.Rows) < 20 {
		t.Fatalf("fig3a rows = %d", len(tab.Rows))
	}
	// Row 0 is idle: memcached 39 W, LaKe ~59 W.
	if got := cell(t, tab, 0, 1); got != 39 {
		t.Errorf("memcached idle = %v", got)
	}
	if got := cell(t, tab, 0, 2); got < 58 || got > 60 {
		t.Errorf("LaKe idle = %v, want ~59", got)
	}
	// At 1 Mpps software is far above LaKe.
	r10 := -1
	for i, row := range tab.Rows {
		if row[0] == "1000" {
			r10 = i
		}
	}
	if r10 < 0 {
		t.Fatal("no 1000 kpps row")
	}
	if sw, hw := cell(t, tab, r10, 1), cell(t, tab, r10, 2); sw < hw+40 {
		t.Errorf("at 1Mpps sw=%v hw=%v, want sw >> hw", sw, hw)
	}
	// Crossover note ~80.
	if !strings.Contains(tab.Notes[0], "kpps") {
		t.Error("missing crossover note")
	}
}

func TestFig4Ordering(t *testing.T) {
	bars := Figure4Bars()
	if len(bars) != 9 {
		t.Fatalf("bars = %d, want 9", len(bars))
	}
	// The paper's x order is ascending in power.
	for i := 1; i < len(bars); i++ {
		if bars[i].Watts < bars[i-1].Watts {
			t.Errorf("bar %q (%.2f W) below predecessor %q (%.2f W)",
				bars[i].Label, bars[i].Watts, bars[i-1].Label, bars[i-1].Watts)
		}
	}
	if bars[0].Label != "Ref. NIC" || bars[8].Label != "LaKe" {
		t.Error("bar endpoints wrong")
	}
	// LaKe standalone ~28 W ~ server-no-cards.
	if bars[8].Watts < 27 || bars[8].Watts > 30 {
		t.Errorf("LaKe bar = %v W", bars[8].Watts)
	}
}

func TestFig5Envelope(t *testing.T) {
	d := DemandCurves()
	if d["kvs"].CrossKpps < 60 || d["kvs"].CrossKpps > 100 {
		t.Errorf("kvs crossover = %v", d["kvs"].CrossKpps)
	}
	if d["paxos"].CrossKpps < 120 || d["paxos"].CrossKpps > 180 {
		t.Errorf("paxos crossover = %v", d["paxos"].CrossKpps)
	}
	if d["dns"].CrossKpps < 100 || d["dns"].CrossKpps > 200 {
		t.Errorf("dns crossover = %v", d["dns"].CrossKpps)
	}
	// On-demand never exceeds software anywhere.
	for name, c := range d {
		for r := 0.0; r <= 1200; r += 25 {
			if c.Power(r) > c.SW(r)+1e-9 {
				t.Fatalf("%s envelope above software at %v kpps", name, r)
			}
		}
	}
}

func TestFig6Transition(t *testing.T) {
	res := RunFig6(Fig6Params{})
	if len(res.Transitions) < 2 {
		t.Fatalf("transitions = %v, want shift out and back", res.Transitions)
	}
	// First shift happens after ChainerMN starts (5s) plus the 3s sustain.
	first := res.Transitions[0].At.Seconds()
	if first < 7.5 || first > 12 {
		t.Errorf("first transition at %.1fs, want ~8-9s", first)
	}
	// §9.2: "the transition ... had no effect on KVS throughput": the
	// worst interval after warm-up against the offered 16 kpps.
	dip := 1.0
	for row := 2; row < len(res.Table.Rows); row++ {
		dip = min(dip, cell(t, res.Table, row, 1)/16)
	}
	if dip < 0.85 {
		t.Errorf("throughput dipped to %.0f%%, want none", dip*100)
	}
	// Latency improves roughly ten-fold once the cache warms.
	if res.LatencyImprovement < 5 {
		t.Errorf("latency improvement = %.1fx, want ~10x", res.LatencyImprovement)
	}
}

func TestFig7Shift(t *testing.T) {
	res := RunFig7(Fig7Params{})
	// ~100ms stall = client timeout.
	if res.StallMs < 50 || res.StallMs > 250 {
		t.Errorf("stall = %v ms, want ~100", res.StallMs)
	}
	// Throughput roughly doubles; latency roughly halves.
	if res.HWRate < res.SWRate*1.4 {
		t.Errorf("throughput sw=%.1f hw=%.1f, want increase", res.SWRate, res.HWRate)
	}
	if res.SWLatency < res.HWLatency*13/10 {
		t.Errorf("latency sw=%v hw=%v, want ~halved", res.SWLatency, res.HWLatency)
	}
	if res.Gaps != 0 {
		t.Errorf("gaps = %d after recovery", res.Gaps)
	}
}

func TestAllExperimentsRender(t *testing.T) {
	for _, e := range All() {
		if e.ID == "fig6" || e.ID == "fig7" {
			continue // covered above; they are slow
		}
		tab := table(t, e.ID)
		if tab == nil || len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", e.ID)
			continue
		}
		out := tab.Render()
		if !strings.Contains(out, e.ID) {
			t.Errorf("%s render missing ID header", e.ID)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow(1.5, "v")
	tab.AddNote("n=%d", 1)
	out := tab.Render()
	for _, want := range []string{"== x: T ==", "a", "bb", "1.5", "v", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
