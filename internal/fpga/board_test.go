package fpga

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLaKeCardIncrement(t *testing.T) {
	b := NewBoard(LaKeDesign)
	// §4.2: LaKe raises the idle 39 W server to 59 W -> ~20 W increment.
	if got := b.CardWatts(0); math.Abs(got-20) > 0.5 {
		t.Errorf("LaKe card increment = %v W, want ~20", got)
	}
	// Load barely moves hardware power (§4.2: "does not increase
	// significantly under load").
	if span := b.CardWatts(1) - b.CardWatts(0); span > 1 {
		t.Errorf("LaKe dynamic span = %v W, want <= 1", span)
	}
}

func TestP4xosTenWattsBelowLaKe(t *testing.T) {
	lake := NewBoard(LaKeDesign)
	p4 := NewBoard(P4xosDesign)
	diff := lake.CardWatts(0) - p4.CardWatts(0)
	// §4.3: "its base power consumption is 10W lower than LaKe".
	if math.Abs(diff-10) > 1 {
		t.Errorf("LaKe - P4xos base = %v W, want ~10", diff)
	}
}

func TestP4xosStandalone(t *testing.T) {
	p4 := NewBoard(P4xosDesign)
	p4.SetStandalone(true)
	// §4.3: 18.2 W idle standalone, <= 1.2 W dynamic.
	if got := p4.CardWatts(0); math.Abs(got-18.2) > 0.3 {
		t.Errorf("P4xos standalone idle = %v W, want ~18.2", got)
	}
	if dyn := p4.CardWatts(1) - p4.CardWatts(0); dyn > 1.2+1e-9 {
		t.Errorf("P4xos dynamic = %v W, want <= 1.2", dyn)
	}
}

func TestEmuDNSTotals(t *testing.T) {
	b := NewBoard(EmuDNSDesign)
	// §4.4: with the 39 W server, Emu DNS starts at 47.5 W and stays
	// below 48 W at full load.
	idle := 39 + b.CardWatts(0)
	full := 39 + b.CardWatts(1)
	if math.Abs(idle-47.5) > 0.5 {
		t.Errorf("Emu DNS idle total = %v W, want ~47.5", idle)
	}
	if full >= 48.5 {
		t.Errorf("Emu DNS full-load total = %v W, want < 48.5", full)
	}
}

func TestPEAccounting(t *testing.T) {
	b := NewBoard(LaKeDesign)
	all := b.CardWatts(0)
	b.SetActivePEs(1)
	one := b.CardWatts(0)
	// §5.1: each PE contributes ~0.25 W.
	if math.Abs((all-one)-4*PEWatts) > 1e-9 {
		t.Errorf("4 PEs = %v W, want %v", all-one, 4*PEWatts)
	}
	b.SetActivePEs(-3)
	if none := b.CardWatts(0); math.Abs((all-none)-5*PEWatts) > 1e-9 {
		t.Errorf("a negative PE count saves %v W, want the 5 PEs' %v: it should clamp to 0", all-none, 5*PEWatts)
	}
	b.SetActivePEs(99)
	if b.CardWatts(0) != all {
		t.Error("PE count should clamp to design maximum")
	}
}

func TestPEThroughputScaling(t *testing.T) {
	b := NewBoard(LaKeDesign)
	b.SetActivePEs(1)
	if b.PeakKpps() != PEThroughputKqps {
		t.Errorf("1 PE peak = %v, want %v", b.PeakKpps(), PEThroughputKqps)
	}
	b.SetActivePEs(5)
	// §3.1: five PEs reach 10GE line rate (~13 Mqps), not 5x3.3.
	if b.PeakKpps() != LineRateKpps {
		t.Errorf("5 PE peak = %v, want line rate %v", b.PeakKpps(), LineRateKpps)
	}
	b.SetModuleActive(false)
	if b.PeakKpps() != 0 {
		t.Error("inactive module should have zero service capacity")
	}
}

func TestClockGatingSavesUnderOneWatt(t *testing.T) {
	b := NewBoard(LaKeDesign)
	base := b.CardWatts(0)
	b.SetClockGating(true)
	saved := base - b.CardWatts(0)
	if saved <= 0 || saved >= 1 {
		t.Errorf("clock gating saves %v W, want (0, 1)", saved)
	}
}

func TestMemoryResetSavesFortyPercent(t *testing.T) {
	b := NewBoard(LaKeDesign)
	base := b.CardWatts(0)
	b.SetMemoryReset(true)
	saved := base - b.CardWatts(0)
	want := (DRAMWatts + SRAMWatts) * MemoryResetSaveFraction
	if math.Abs(saved-want) > 1e-9 {
		t.Errorf("memory reset saves %v W, want %v", saved, want)
	}
}

func TestExternalMemoriesCostAtLeastTenWatts(t *testing.T) {
	// §5.1: "The biggest contributor to power consumption is the external
	// memories—no less than 10W."
	if DRAMWatts+SRAMWatts < 10 {
		t.Errorf("memories = %v W, want >= 10", DRAMWatts+SRAMWatts)
	}
}

func TestLaKeLogicOverNICIs2p2W(t *testing.T) {
	// §5.2: LaKe's logic over the reference NIC is 2.2 W.
	lake := NewBoard(LaKeDesign)
	lake.SetMemoryReset(true) // isolate logic: remove 60% of memory power
	logic := LaKeDesign.LogicFixedWatts + float64(LaKeDesign.NumPEs)*PEWatts
	if math.Abs(logic-2.2) > 1e-9 {
		t.Errorf("LaKe logic = %v W, want 2.2", logic)
	}
}

func TestInactiveModuleGap(t *testing.T) {
	// §9.2: keeping LaKe programmed but inactive (memories reset, module
	// clock gated) costs only a few watts more than the plain NIC.
	nic := NewBoard(ReferenceNIC)
	lake := NewBoard(LaKeDesign)
	lake.SetMemoryReset(true)
	lake.SetClockGating(true)
	lake.SetModuleActive(false)
	gap := lake.CardWatts(0) - nic.CardWatts(0)
	if gap < 3 || gap > 9 {
		t.Errorf("inactive-LaKe vs NIC gap = %v W, want a small single-digit gap", gap)
	}
}

func TestStandaloneRoughlyServerIdle(t *testing.T) {
	// §5.1: a host-less LaKe board idles at roughly the power of an idle
	// server without cards (~28 W).
	lake := NewBoard(LaKeDesign)
	lake.SetStandalone(true)
	if got := lake.CardWatts(0); math.Abs(got-28) > 1 {
		t.Errorf("standalone LaKe idle = %v W, want ~28", got)
	}
}

func TestMemoryCapacityRatios(t *testing.T) {
	if DRAMValueEntries/OnChipValueEntries < 60_000 {
		t.Error("DRAM should hold ~65k x the on-chip value entries")
	}
	if SRAMFreeChunks/OnChipFreeChunks < 30_000 {
		t.Error("SRAM should hold ~32k x the on-chip free chunks")
	}
}

func TestScaledConfig(t *testing.T) {
	s := LaKeDesign.Scaled(UltraScalePlusFactor)
	if s.LogicFixedWatts >= LaKeDesign.LogicFixedWatts {
		t.Error("scaled config should draw less logic power")
	}
	if s.PeakKpps != LaKeDesign.PeakKpps {
		t.Error("scaling should keep throughput")
	}
}

// Property: power is monotone in load and never below the NIC base.
func TestBoardPowerProperty(t *testing.T) {
	f := func(load8 uint8, pes uint8, gate, reset, active bool) bool {
		b := NewBoard(LaKeDesign)
		b.SetActivePEs(int(pes % 6))
		b.SetClockGating(gate)
		b.SetMemoryReset(reset)
		b.SetModuleActive(active)
		load := float64(load8) / 255
		p := b.CardWatts(load)
		return p >= NICBaseCardWatts && b.CardWatts(load/2) <= p+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
