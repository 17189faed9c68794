package placement

import "testing"

// The §10 platforms, by their catalog names.
const (
	FPGANIC      = "NetFPGA SUME (P4xos)"
	FPGASmartNIC = "AccelNet-class FPGA SmartNIC"
	ASICSmartNIC = "ASIC SmartNIC"
	SoCSmartNIC  = "SoC SmartNIC"
	SwitchASIC   = "Tofino-class switch ASIC"
)

func TestCatalogAnchors(t *testing.T) {
	byName := map[string]Platform{}
	for _, p := range Catalog() {
		byName[p.Name] = p
	}
	if len(byName) != 5 {
		t.Fatalf("catalog platforms = %d, want 5", len(byName))
	}
	// §10: switch ASIC has the highest performance and perf/W.
	sw := byName[SwitchASIC]
	for k, p := range byName {
		if k == SwitchASIC {
			continue
		}
		if p.PeakMpps >= sw.PeakMpps {
			t.Errorf("%v peak %v >= switch %v", k, p.PeakMpps, sw.PeakMpps)
		}
		if p.PerfPerWatt() >= sw.PerfPerWatt() {
			t.Errorf("%v perf/W %v >= switch %v", k, p.PerfPerWatt(), sw.PerfPerWatt())
		}
	}
	// §10: a switch "may not be the cheapest solution, with a price tag
	// of x10 or more".
	if sw.PriceUnits < 10 {
		t.Errorf("switch price %v, want >= 10x NIC-class", sw.PriceUnits)
	}
	// SmartNICs stay within the 25 W PCIe envelope.
	for _, k := range []string{FPGASmartNIC, ASICSmartNIC, SoCSmartNIC} {
		if byName[k].Watts > 25 {
			t.Errorf("%v draws %v W, want <= 25 (PCIe envelope)", k, byName[k].Watts)
		}
	}
	// AccelNet-class: ~4 Mpps/W.
	if ppw := byName[FPGASmartNIC].PerfPerWatt(); ppw < 3 || ppw > 5 {
		t.Errorf("FPGA SmartNIC perf/W = %v, want ~4", ppw)
	}
	// FPGA NIC: poorest perf/W, maximum flexibility.
	fpga := byName[FPGANIC]
	for k, p := range byName {
		if k == FPGANIC {
			continue
		}
		if p.PerfPerWatt() <= fpga.PerfPerWatt() {
			t.Errorf("%v perf/W %v <= FPGA's %v (FPGA should be poorest)", k, p.PerfPerWatt(), fpga.PerfPerWatt())
		}
		if p.Flexibility > fpga.Flexibility {
			t.Errorf("%v flexibility %d > FPGA's %d", k, p.Flexibility, fpga.Flexibility)
		}
	}
	// SoC: easiest trajectory.
	for k, p := range byName {
		if k != SoCSmartNIC && p.ProgrammingEase >= byName[SoCSmartNIC].ProgrammingEase {
			t.Errorf("%v ease %d >= SoC's", k, p.ProgrammingEase)
		}
	}
	// Only the switch takes out a whole rack.
	for k, p := range byName {
		if (k == SwitchASIC) != (p.BlastRadius > 1) {
			t.Errorf("%v blast radius %d", k, p.BlastRadius)
		}
	}
}

func TestRankHardConstraints(t *testing.T) {
	// A full KVS needs external memory and high flexibility: the switch
	// must be infeasible, FPGA platforms feasible.
	scores := Rank(Requirements{MinMpps: 5, NeedExternalMemory: true, MinFlexibility: 8})
	if !scores[0].Feasible {
		t.Fatalf("no feasible platform: %+v", scores)
	}
	for _, s := range scores {
		switch s.Platform.Name {
		case SwitchASIC:
			if s.Feasible {
				t.Error("switch should be infeasible for memory+flexibility needs")
			}
			if len(s.Why) == 0 {
				t.Error("infeasible platform should explain why")
			}
		case FPGANIC, FPGASmartNIC:
			if !s.Feasible {
				t.Errorf("%s should be feasible: %v", s.Platform.Name, s.Why)
			}
		}
	}
}

func TestRankExtremeThroughputPicksSwitch(t *testing.T) {
	scores := Rank(Requirements{MinMpps: 1000})
	if scores[0].Platform.Name != SwitchASIC || !scores[0].Feasible {
		t.Errorf("1 Gpps requirement should leave only the switch, got %+v", scores[0])
	}
	feasible := 0
	for _, s := range scores {
		if s.Feasible {
			feasible++
		}
	}
	if feasible != 1 {
		t.Errorf("feasible = %d, want 1", feasible)
	}
}

func TestRankBudget(t *testing.T) {
	scores := Rank(Requirements{MaxPriceUnits: 2})
	for _, s := range scores {
		if s.Platform.Name == SwitchASIC && s.Feasible {
			t.Error("switch violates the budget")
		}
	}
	// Feasible entries sort by value, descending.
	prev := -1.0
	for _, s := range scores {
		if !s.Feasible {
			break
		}
		if prev >= 0 && s.Value > prev {
			t.Error("feasible platforms not sorted by value")
		}
		prev = s.Value
	}
}
