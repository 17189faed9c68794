package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func linear(idle, slope float64) func(float64) float64 {
	return func(r float64) float64 { return idle + slope*r }
}

func TestEnergyDecomposition(t *testing.T) {
	p := Profile{
		Name:         "sw",
		DynamicWatts: linear(10, 0.1),
		SleepWatts:   5,
		IdleWatts:    2,
	}
	// 100k packets at 100 kpps -> Td = 1 s at Pd(100)=20 W.
	b := p.Energy(100_000, 100, 2*time.Second, 3*time.Second)
	if math.Abs(b.ActiveJ-20) > 1e-9 {
		t.Errorf("ActiveJ = %v, want 20", b.ActiveJ)
	}
	if b.SleepJ != 10 || b.IdleJ != 6 {
		t.Errorf("SleepJ, IdleJ = %v, %v, want 10, 6", b.SleepJ, b.IdleJ)
	}
	if math.Abs(b.Total()-36) > 1e-9 {
		t.Errorf("Total = %v, want 36", b.Total())
	}
}

func TestEnergyZeroRate(t *testing.T) {
	p := Profile{DynamicWatts: linear(10, 1), IdleWatts: 2}
	b := p.Energy(1000, 0, 0, time.Second)
	if b.ActiveJ != 0 {
		t.Errorf("zero rate should accrue no active energy, got %v", b.ActiveJ)
	}
	if b.IdleJ != 2 {
		t.Errorf("IdleJ = %v, want 2", b.IdleJ)
	}
}

func TestAdoptionPenalty(t *testing.T) {
	if AdoptionPenaltyWatts(100, 110) != 10 {
		t.Error("penalty should be the idle-power difference")
	}
	// §9.4: programmable Arista switches can be cheaper than fixed ones.
	if AdoptionPenaltyWatts(110, 100) != -10 {
		t.Error("negative penalty should be preserved")
	}
}

func TestOpsPerWattLadder(t *testing.T) {
	// §6 ladder: software 10K's, FPGA 100K's, ASIC 10M's msgs/W. The
	// software and FPGA figures count the power attributable to the
	// application (dynamic for the server, whole standalone board for
	// the FPGA), as in §6's footnote-3 usage of "dynamic power".
	sw := Ladder{Name: "libpaxos", PeakKpps: 178, PeakWatts: 49 - 39}
	fp := Ladder{Name: "p4xos-fpga", PeakKpps: 10_000, PeakWatts: 18.2 + 1.2}
	as := Ladder{Name: "p4xos-asic", PeakKpps: 2_500_000, PeakWatts: 237}
	if e := sw.Efficiency(); e < 1e4 || e >= 1e5 {
		t.Errorf("software ops/W = %v, want 10K's", e)
	}
	if e := fp.Efficiency(); e < 1e5 || e >= 1e7 {
		t.Errorf("FPGA ops/W = %v, want 100K's", e)
	}
	if e := as.Efficiency(); e < 1e7 {
		t.Errorf("ASIC ops/W = %v, want 10M's", e)
	}
	if OpsPerWatt(100, 0) != 0 {
		t.Error("zero watts should return 0, not Inf")
	}
}

func TestSavingFraction(t *testing.T) {
	a := Breakdown{ActiveJ: 100}
	b := Breakdown{ActiveJ: 50}
	if got := SavingFraction(a, b); got != 0.5 {
		t.Errorf("saving = %v, want 0.5", got)
	}
	if SavingFraction(Breakdown{}, b) != 0 {
		t.Error("zero baseline should return 0")
	}
	if SavingFraction(b, a) != -1 {
		t.Error("worse placement should be negative")
	}
}

// Property: energy is additive in time and linear in idle duration.
func TestEnergyLinearityProperty(t *testing.T) {
	p := Profile{DynamicWatts: linear(7, 0.3), SleepWatts: 4, IdleWatts: 3}
	f := func(w uint32, rate16 uint16, secs uint8) bool {
		rate := float64(rate16%2000) + 1
		ti := time.Duration(secs) * time.Second
		b1 := p.Energy(uint64(w), rate, 0, ti)
		b2 := p.Energy(uint64(w), rate, 0, 2*ti)
		return math.Abs(b2.IdleJ-2*b1.IdleJ) < 1e-6 &&
			math.Abs(b1.ActiveJ-b2.ActiveJ) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
