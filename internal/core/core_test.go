package core

import (
	"math"
	"testing"
	"time"

	"incod/internal/power"
)

func TestDemandCurveEnvelope(t *testing.T) {
	lake := func(float64) float64 { return 59.2 }
	d := NewDemandCurve("kvs", power.MemcachedMellanox.Power, lake, 2000)
	if d.CrossKpps < 60 || d.CrossKpps > 100 {
		t.Fatalf("KVS crossover = %v, want ~80", d.CrossKpps)
	}
	// Below the crossover: software power, host placement.
	if d.Power(10) != power.MemcachedMellanox.Power(10) {
		t.Error("below crossover should be software")
	}
	// Above: hardware power, network placement.
	if d.Power(1000) != 59.2 {
		t.Error("above crossover should be hardware")
	}
	// The envelope never exceeds the software curve.
	for r := 0.0; r <= 2000; r += 50 {
		if d.Power(r) > power.MemcachedMellanox.Power(r)+1e-9 {
			t.Fatalf("envelope above software at %v kpps", r)
		}
	}
	// §9/Fig 5: on-demand saves roughly half the software power at high
	// rate (111W -> 59W is ~47%).
	frac, at := d.MaxSaving(1000, 200)
	if frac < 0.40 || frac > 0.60 {
		t.Errorf("max saving = %.0f%% at %v kpps, want ~50%%", frac*100, at)
	}
}

func TestDemandCurveNoCrossover(t *testing.T) {
	d := NewDemandCurve("never", func(float64) float64 { return 10 }, func(float64) float64 { return 100 }, 1000)
	if d.CrossKpps != -1 {
		t.Fatalf("CrossKpps = %v, want -1", d.CrossKpps)
	}
	if d.Power(500) != 10 {
		t.Error("no-crossover envelope should always be software")
	}
	if d.SavingFraction(500) != 0 {
		t.Error("no saving without a crossover")
	}
}

func TestPlacementString(t *testing.T) {
	if Host.String() != "host" || Network.String() != "network" {
		t.Error("Placement names wrong")
	}
}

func TestFuncServiceShiftNoop(t *testing.T) {
	calls := 0
	svc := &FuncService{ServiceName: "x", Where: Host, OnShift: func(Placement) error { calls++; return nil }}
	svc.Shift(Host)
	if calls != 0 {
		t.Error("shift to current placement must be a no-op")
	}
	svc.Shift(Network)
	if calls != 1 || svc.Placement() != Network {
		t.Error("shift should apply")
	}
}

func TestTransitionString(t *testing.T) {
	tr := Transition{At: time.Second, To: Network, Reason: "r"}
	if tr.String() != "1s -> network (r)" {
		t.Errorf("String() = %q", tr.String())
	}
}

func TestDefaultConfigsHaveHysteresis(t *testing.T) {
	nc := DefaultNetworkConfig(150)
	if nc.ToHostKpps >= nc.ToNetworkKpps {
		t.Error("network config lacks hysteresis gap")
	}
	if math.Abs(nc.ToNetworkKpps-165) > 1 {
		t.Errorf("to-network threshold = %v, want crossover*1.1", nc.ToNetworkKpps)
	}
	hc := DefaultHostConfig(55, 50)
	if hc.ToNetworkSustain != 3*time.Second {
		t.Error("default sustain should match the Figure 6 experiment (3s)")
	}
}
