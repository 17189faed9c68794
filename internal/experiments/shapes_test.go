package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"incod/internal/power"
)

func TestFig3bShape(t *testing.T) {
	tab := table(t, "fig3b")
	// Idle row: libpaxos 39 W, DPDK high flat, P4xos ~49 W, standalone 18.2 W.
	if got := cell(t, tab, 0, 1); got != 39 {
		t.Errorf("libpaxos idle = %v", got)
	}
	if got := cell(t, tab, 0, 2); got < 70 {
		t.Errorf("DPDK idle = %v, want high (polling)", got)
	}
	if got := cell(t, tab, 0, 3); got < 48 || got > 50 {
		t.Errorf("P4xos idle = %v, want ~49", got)
	}
	if got := cell(t, tab, 0, 4); got < 18 || got > 18.5 {
		t.Errorf("standalone idle = %v, want 18.2", got)
	}
	// P4xos stays nearly flat to 1 Mpps.
	lastRow := len(tab.Rows) - 1
	if span := cell(t, tab, lastRow, 3) - cell(t, tab, 0, 3); span > 1.5 {
		t.Errorf("P4xos span = %v W, want < 1.5", span)
	}
}

// §3.1: LaKe delivers ~x24 the queries-per-watt of software memcached.
func TestLaKeEfficiencyX24(t *testing.T) {
	lakeEff := 13000.0 / lakePower(13000)
	sw := power.MemcachedMellanox
	swEff := sw.PeakKpps / sw.Power(sw.PeakKpps)
	ratio := lakeEff / swEff
	if ratio < 20 || ratio > 28 {
		t.Errorf("LaKe/memcached efficiency ratio = %.1f, want ~24", ratio)
	}
}

func TestFig3cShape(t *testing.T) {
	tab := table(t, "fig3c")
	if got := cell(t, tab, 0, 2); got < 47 || got > 48 {
		t.Errorf("Emu idle total = %v, want ~47.5", got)
	}
	// NSD overtakes Emu well before peak and roughly doubles it at peak.
	last := len(tab.Rows) - 1
	nsd, emu := cell(t, tab, last, 1), cell(t, tab, last, 2)
	if nsd < 1.8*emu {
		t.Errorf("NSD peak %v not ~2x Emu %v", nsd, emu)
	}
}

func TestLatencyTableShape(t *testing.T) {
	tab := table(t, "latency")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	lat := map[string]time.Duration{}
	for _, row := range tab.Rows {
		d, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatalf("bad duration %q", row[2])
		}
		lat[row[0]+"/"+row[1]] = d
	}
	// §9.5: in-network placement always has lower latency.
	for _, app := range []string{"kvs", "dns", "paxos"} {
		if lat[app+"/network"] >= lat[app+"/host"] {
			t.Errorf("%s: network %v !< host %v", app, lat[app+"/network"], lat[app+"/host"])
		}
	}
	// DNS shows the largest gap (~x70 service time).
	if r := float64(lat["dns/host"]) / float64(lat["dns/network"]); r < 20 {
		t.Errorf("dns host/network ratio = %.0f, want large", r)
	}
}

// The KVS and DNS cells of the latency table, pinned: they are what the
// paper-calibrated cost model has rendered since the seed, whichever
// code did the serving underneath it.
func TestLatencyGoldenRows(t *testing.T) {
	want := [][]string{
		{"kvs", "network", "2.479µs", "2.544µs"},
		{"kvs", "host", "15.252µs", "16.052µs"},
		{"dns", "network", "2.417µs", "2.544µs"},
		{"dns", "host", "91.434µs", "98.728µs"},
	}
	rows := table(t, "latency").Rows
	for i, w := range want {
		for j := range w {
			if rows[i][j] != w[j] {
				t.Errorf("latency row %d = %v, want %v", i, rows[i], w)
				break
			}
		}
	}
}

// §6 ladder: software 10K's, FPGA 100K's, ASIC 10M's msgs/W. The
// software and FPGA figures count the power attributable to the
// application (dynamic for the server, whole standalone board for the
// FPGA), as in §6's footnote-3 usage of "dynamic power".
func TestOpsPerWattLadder(t *testing.T) {
	tab := opsWatt()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 substrates", len(tab.Rows))
	}
	if e := cell(t, tab, 0, 3); e < 1e4 || e >= 1e5 {
		t.Errorf("software msgs/W = %v, want 10K's", e)
	}
	if e := cell(t, tab, 1, 3); e < 1e5 || e >= 1e7 {
		t.Errorf("FPGA msgs/W = %v, want 100K's", e)
	}
	if e := cell(t, tab, 2, 3); e < 1e7 {
		t.Errorf("ASIC msgs/W = %v, want 10M's", e)
	}
}

func TestStrategiesTableShape(t *testing.T) {
	tab := table(t, "strategies")
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Power: partial-reconfig < park-reset < keep-warm.
	pr, pk, kw := parse(byName["partial-reconfig"][1]), parse(byName["park-reset"][1]), parse(byName["keep-warm"][1])
	if !(pr < pk && pk < kw) {
		t.Errorf("parked power ordering wrong: %v %v %v", pr, pk, kw)
	}
	// Reactivation cost: keep-warm has no misses; partial-reconfig halts.
	if parse(byName["keep-warm"][2]) != 0 {
		t.Error("keep-warm should have zero reactivation misses")
	}
	if parse(byName["partial-reconfig"][3]) == 0 {
		t.Error("partial-reconfig should drop packets during the halt")
	}
	if parse(byName["park-reset"][3]) != 0 {
		t.Error("park-reset never halts traffic")
	}
}

func TestInfraTableShape(t *testing.T) {
	tab := table(t, "infra")
	// Card share shrinks as the host gets hungrier.
	i7 := cell(t, tab, 0, 3)
	xeon := cell(t, tab, 1, 3)
	arm := cell(t, tab, 2, 3)
	if !(xeon < i7 && i7 < arm) {
		t.Errorf("card share ordering wrong: xeon %v, i7 %v, arm %v", xeon, i7, arm)
	}
}

func TestValidateTableAgreement(t *testing.T) {
	tab := table(t, "validate")
	for _, row := range tab.Rows {
		delta, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad delta %q", row[3])
		}
		if delta > 1.0 {
			t.Errorf("model vs simulation at %s kpps differs by %v W, want <= 1", row[0], delta)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("v,with,commas", 1.25)
	tab.AddNote("hello")
	out := tab.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"v,with,commas"`) {
		t.Errorf("comma cell not quoted: %q", lines[1])
	}
	if lines[2] != "# hello" {
		t.Errorf("note line = %q", lines[2])
	}
}

func TestXeonTableCells(t *testing.T) {
	tab := table(t, "xeon")
	if got := cell(t, tab, 0, 2); got != 56 {
		t.Errorf("idle = %v", got)
	}
	// One core at 10%: ~86 W.
	if got := cell(t, tab, 1, 2); got < 84 || got > 88 {
		t.Errorf("10%% row = %v, want ~86", got)
	}
}

func TestPlaceTableHasAllPlatforms(t *testing.T) {
	tab := table(t, "place")
	if len(tab.Rows) != 5 {
		t.Errorf("rows = %d, want 5 platforms", len(tab.Rows))
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "kvs (large state)") {
			found = true
		}
	}
	if !found {
		t.Error("missing per-app ranking notes")
	}
}
