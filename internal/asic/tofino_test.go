package asic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdlePowerProgramAgnostic(t *testing.T) {
	// §6: "The power consumption when idle is the same for both the ASIC
	// with forwarding alone, and the ASIC with forwarding plus P4xos."
	a, b := NewTofino(), NewTofino()
	a.Load(L2Fwd)
	b.Load(P4xosL2Fwd)
	if a.Power(0) != b.Power(0) {
		t.Errorf("idle power differs: %v vs %v", a.Power(0), b.Power(0))
	}
}

func TestP4xosOverheadUnderTwoPercent(t *testing.T) {
	base, p4 := NewTofino(), NewTofino()
	p4.Load(P4xosL2Fwd)
	for load := 0.0; load <= 1.0001; load += 0.05 {
		rel := p4.Power(load)/base.Power(load) - 1
		if rel > 0.02+1e-9 {
			t.Fatalf("P4xos overhead at load %.2f = %.3f, want <= 2%%", load, rel)
		}
	}
}

func TestDiagTwiceP4xos(t *testing.T) {
	// §6: diag.p4 takes 4.8% more at full load, "more than twice that of
	// P4xos".
	diag, p4 := NewTofino(), NewTofino()
	diag.Load(DiagP4)
	p4.Load(P4xosL2Fwd)
	base := NewTofino()
	dOver := diag.Power(1)/base.Power(1) - 1
	pOver := p4.Power(1)/base.Power(1) - 1
	if math.Abs(dOver-0.048) > 0.002 {
		t.Errorf("diag overhead = %v, want ~4.8%%", dOver)
	}
	if dOver <= 2*pOver {
		t.Errorf("diag overhead %v should exceed twice P4xos' %v", dOver, pOver)
	}
}

func TestMinMaxSpanUnderTwentyPercent(t *testing.T) {
	s := NewTofino()
	s.Load(P4xosL2Fwd)
	span := s.Power(1)/s.Power(0) - 1
	if span >= 0.20 {
		t.Errorf("min-max span = %v, want < 20%%", span)
	}
	if span <= 0.05 {
		t.Errorf("span = %v; power should still grow noticeably with load", span)
	}
}

func TestTenPercentUtilizationAnchors(t *testing.T) {
	s := NewTofino()
	s.Load(P4xosL2Fwd)
	// x1000 the server's 178 K msgs/s at 10% utilization.
	msgs := s.MsgThroughputKpps(0.10)
	if msgs < 1000*178 {
		t.Errorf("ASIC at 10%% = %v kpps, want >= x1000 the 178 kpps server", msgs)
	}
	// Dynamic power ~1/3 of the server's dynamic draw at 180 Kpps (~10 W).
	dyn := s.DynamicWatts(0.10)
	if dyn < 2 || dyn > 5 {
		t.Errorf("ASIC dynamic at 10%% = %v W, want ~3.3 (1/3 of ~10 W)", dyn)
	}
}

func TestOpsPerWattLadder(t *testing.T) {
	// §6: "the ASIC implementation easily achieves 10M's of messages per
	// watt" at peak.
	s := NewTofino()
	s.Load(P4xosL2Fwd)
	if opw := s.MsgThroughputKpps(1) * 1000 / s.Power(1); opw < 1e7 {
		t.Errorf("ASIC ops/W = %v, want >= 10M", opw)
	}
	if s.MsgThroughputKpps(0) != 0 {
		t.Error("idle ops/W should be zero")
	}
}

func TestNormalized(t *testing.T) {
	s := NewTofino()
	if s.Normalized(0) != 1 {
		t.Errorf("Normalized(0) = %v, want 1", s.Normalized(0))
	}
	if s.Normalized(1) <= 1 || s.Normalized(1) >= 1.2 {
		t.Errorf("Normalized(1) = %v, want (1, 1.2)", s.Normalized(1))
	}
}

func TestPortDynamicWatts(t *testing.T) {
	// §9.4: a million 1500 B queries per second draws < 1 W.
	if w := PortDynamicWatts(1e6, 1500); w >= 1 {
		t.Errorf("1 Mpps x 1500 B = %v W, want < 1", w)
	}
	if PortDynamicWatts(0, 1500) != 0 || PortDynamicWatts(1e6, 0) != 0 {
		t.Error("degenerate inputs should cost 0 W")
	}
	// 100G at line rate with 1500 B packets is ~8.33 Mpps -> ~5 W.
	if w := PortDynamicWatts(8.33e6, 1500); math.Abs(w-5) > 0.05 {
		t.Errorf("line-rate 100G port = %v W, want ~5", w)
	}
}

// Property: power is monotone in load for every program, and overhead
// ordering diag > p4xos > l2fwd holds at any positive load.
func TestSwitchPowerProperty(t *testing.T) {
	f := func(l8 uint8) bool {
		load := float64(l8) / 255
		base, p4, diag := NewTofino(), NewTofino(), NewTofino()
		p4.Load(P4xosL2Fwd)
		diag.Load(DiagP4)
		pb, pp, pd := base.Power(load), p4.Power(load), diag.Power(load)
		if load == 0 {
			return pb == pp && pp == pd
		}
		return pb <= pp && pp <= pd && base.Power(load/2) <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
