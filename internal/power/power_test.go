package power

import (
	"math"
	"testing"
	"testing/quick"
)

// §7 anchors for the dual Xeon E5-2660 v4.
func TestXeonAnchors(t *testing.T) {
	m := XeonE52660v4Dual
	if got := m.Power(0, 0); got != 56 {
		t.Errorf("idle = %v W, want 56", got)
	}
	if got := m.Power(1, 1); math.Abs(got-91) > 1 {
		t.Errorf("one core full = %v W, want ~91", got)
	}
	if got := m.Power(28, 1); math.Abs(got-134) > 2 {
		t.Errorf("full load = %v W, want ~134", got)
	}
	// "even at a low CPU core load, e.g. 10%, the power consumption of
	// the server reaches 86W".
	if got := m.Power(1, 0.10); math.Abs(got-86) > 1.5 {
		t.Errorf("one core at 10%% = %v W, want ~86", got)
	}
	// "the overhead of an additional core running is small, 1W-2W".
	delta := m.Power(2, 1) - m.Power(1, 1)
	if delta < 1 || delta > 2 {
		t.Errorf("extra-core overhead = %v W, want 1-2", delta)
	}
}

func TestXeonSocketBreakdown(t *testing.T) {
	m := XeonE52660v4Dual
	idle := m.SocketPower(0, 0)
	if len(idle) != 2 || idle[0] != 28 || idle[1] != 28 {
		t.Errorf("idle sockets = %v, want [28 28] (evenly divided)", idle)
	}
	// §7: running one core raises both sockets "almost equally".
	busy := m.SocketPower(1, 1)
	if busy[0]+busy[1] < 89 || busy[0]+busy[1] > 93 {
		t.Errorf("socket sum = %v, want ~91", busy[0]+busy[1])
	}
	if busy[1] <= idle[1] {
		t.Error("second socket power should rise when a core on socket 0 runs")
	}
	if busy[0] <= busy[1] {
		t.Error("socket hosting the core should draw more")
	}
}

// Power never falls as utilization or the number of busy cores grows.
func TestPowerAtLoadMonotone(t *testing.T) {
	for name, m := range map[string]CPUModel{"XeonE52660v4Dual": XeonE52660v4Dual, "XeonE52637v4": XeonE52637v4} {
		for cores := 1; cores <= m.Cores(); cores++ {
			prev := -1.0
			for util := 0.0; util <= 1.0001; util += 0.01 {
				p := m.Power(cores, util)
				if p < prev-1e-9 {
					t.Fatalf("%s: power not monotone at %d cores, util %.2f: %v < %v", name, cores, util, p, prev)
				}
				if cores > 1 && p < m.Power(cores-1, util)-1e-9 {
					t.Fatalf("%s: %d busy cores draw less than %d at util %.2f", name, cores, cores-1, util)
				}
				prev = p
			}
		}
	}
}

func TestPowerClamps(t *testing.T) {
	m := XeonE52637v4
	if m.Power(100, 2) != m.Power(4, 1) {
		t.Error("active cores / util should clamp to machine limits")
	}
	if m.Power(1, -1) != m.IdleWatts {
		t.Error("negative load should be idle")
	}
}

// Momentary server power "can more than double itself" (§6 referencing §4).
func TestServerPowerDoubles(t *testing.T) {
	idle := MemcachedMellanox.Power(0)
	peak := MemcachedMellanox.Power(MemcachedMellanox.PeakKpps)
	if peak < 2*idle {
		t.Errorf("memcached peak %v W < 2x idle %v W", peak, idle)
	}
}

func TestCurveIdleAndPeaks(t *testing.T) {
	cases := []struct {
		name   string
		c      SoftwareCurve
		idle   float64
		peakLo float64
		peakHi float64
	}{
		{"MemcachedMellanox", MemcachedMellanox, 39, 105, 120}, // Fig 3(a) peak band
		{"LibpaxosAcceptor", LibpaxosAcceptor, 39, 48, 52},     // crosses P4xos' ~49 W near peak
		{"NSDServer", NSDServer, 39, 90, 100},                  // ~2x Emu DNS's 48 W at peak (§4.4)
	}
	for _, tc := range cases {
		if got := tc.c.Power(0); got != tc.idle {
			t.Errorf("%s idle = %v, want %v", tc.name, got, tc.idle)
		}
		p := tc.c.Power(tc.c.PeakKpps)
		if p < tc.peakLo || p > tc.peakHi {
			t.Errorf("%s peak = %v W, want in [%v, %v]", tc.name, p, tc.peakLo, tc.peakHi)
		}
	}
}

// §4.3: DPDK power is high at idle and almost flat under load.
func TestDPDKAlmostConstant(t *testing.T) {
	span := DPDKLeader.Power(DPDKLeader.PeakKpps) - DPDKLeader.Power(0)
	if span > 5 {
		t.Errorf("DPDK power span = %v W, want nearly constant (<5)", span)
	}
	if DPDKLeader.Power(0) < 1.5*MemcachedMellanox.Power(0) {
		t.Error("DPDK idle draw should far exceed the interrupt-driven stack's")
	}
}

func TestGoodputSaturates(t *testing.T) {
	c := LibpaxosAcceptor
	if c.Utilization(89) != 0.5 {
		t.Errorf("utilization = %v, want 0.5", c.Utilization(89))
	}
	if c.Utilization(1e6) != 1 {
		t.Error("utilization should clamp at 1")
	}
}

func TestCrossoverBisection(t *testing.T) {
	sw := func(r float64) float64 { return 39 + r/10 }
	hw := func(r float64) float64 { return 59 }
	got := Crossover(sw, hw, 1000)
	if math.Abs(got-200) > 0.01 {
		t.Errorf("crossover = %v, want 200", got)
	}
	if Crossover(func(float64) float64 { return 10 }, hw, 1000) != -1 {
		t.Error("no crossover should return -1")
	}
	if Crossover(func(float64) float64 { return 100 }, hw, 1000) != 0 {
		t.Error("hardware cheaper everywhere should return 0")
	}
}

func TestSaving(t *testing.T) {
	if got := Saving(100, 50); got != 0.5 {
		t.Errorf("Saving(100, 50) = %v, want 0.5", got)
	}
	if got := Saving(0, 50); got != 0 {
		t.Errorf("Saving with no software energy = %v, want 0", got)
	}
	if got := Saving(50, 100); got != -1 {
		t.Errorf("Saving(50, 100) = %v, want -1 (on-demand costs more)", got)
	}
}

// Property: all software curves are monotone non-decreasing in rate.
func TestCurvesMonotoneProperty(t *testing.T) {
	curves := []SoftwareCurve{MemcachedMellanox, MemcachedIntelX520,
		LibpaxosLeader, LibpaxosAcceptor, DPDKLeader, DPDKAcceptor, NSDServer}
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, c := range curves {
			if c.Power(lo) > c.Power(hi)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Crossover sanity on the real curves: KVS ~80 kpps, Paxos ~150 kpps,
// DNS in 100..200 kpps (these are re-verified end-to-end in experiments).
func TestPaperCrossoversApprox(t *testing.T) {
	lake := func(float64) float64 { return 59.2 }
	p4xos := func(float64) float64 { return 49.0 }
	emu := func(float64) float64 { return 47.6 }

	if r := Crossover(MemcachedMellanox.Power, lake, 2000); math.Abs(r-80) > 15 {
		t.Errorf("KVS crossover = %v kpps, want ~80", r)
	}
	if r := Crossover(LibpaxosLeader.Power, p4xos, 1000); math.Abs(r-150) > 25 {
		t.Errorf("Paxos crossover = %v kpps, want ~150", r)
	}
	r := Crossover(NSDServer.Power, emu, 1000)
	if r < 100 || r > 200 {
		t.Errorf("DNS crossover = %v kpps, want 100-200", r)
	}
	// §4.2: with the Intel NIC the crossing moves past 300 kpps.
	if r := Crossover(MemcachedIntelX520.Power, lake, 2000); r < 300 {
		t.Errorf("Intel-NIC KVS crossover = %v kpps, want > 300", r)
	}
}
