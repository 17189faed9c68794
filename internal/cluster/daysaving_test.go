package cluster

import (
	"math"
	"testing"

	"incod/internal/power"
)

func TestDiurnalLoadShape(t *testing.T) {
	tr := DiurnalLoad(20, 500)
	if len(tr) != 24*3600 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[3*3600] != 20 {
		t.Errorf("3am load = %v, want night level", tr[3*3600])
	}
	peak := tr[15*3600]
	if math.Abs(peak-500) > 1 {
		t.Errorf("3pm load = %v, want ~500", peak)
	}
	if tr[10*3600] <= 20 || tr[10*3600] >= 500 {
		t.Errorf("10am load = %v, want between night and peak", tr[10*3600])
	}
}

func TestDaySaving(t *testing.T) {
	tr := DiurnalLoad(20, 500)
	lake := func(float64) float64 { return 59.2 }
	onDemand := func(kpps float64) float64 {
		sw := power.MemcachedMellanox.Power(kpps)
		if hw := lake(kpps); hw < sw {
			return hw
		}
		return sw
	}
	swKWh, odKWh, saved := DaySaving(tr, power.MemcachedMellanox.Power, onDemand)
	// The diurnal KVS day that examples/datacenter_sweep prints: busy
	// daytime sits above the crossover for most of the day, so the saving
	// is well below the instantaneous max (~47%). Each figure is pinned
	// within 0.5% of the value the example prints.
	within := func(name string, got, want float64) {
		if math.Abs(got-want) > 0.005*want {
			t.Errorf("%s = %.4f, want %.4f within 0.5%%", name, got, want)
		}
	}
	within("software kWh", swKWh, 1.53)
	within("on-demand kWh", odKWh, 1.30)
	within("saved fraction", saved, 0.15)
}

// One sample per second under the trapezoid rule: 3601 samples span one
// hour, so a constant 1 kW is 1 kWh and a constant 500 W saves half.
func TestEnergyKWhConstant(t *testing.T) {
	tr := make(LoadTrace, 3601) // one hour at any load
	swKWh, odKWh, saved := DaySaving(tr,
		func(float64) float64 { return 1000 },
		func(float64) float64 { return 500 })
	if math.Abs(swKWh-1) > 1e-9 {
		t.Errorf("1kW for 1h = %v kWh, want 1", swKWh)
	}
	if math.Abs(odKWh-0.5) > 1e-9 || math.Abs(saved-0.5) > 1e-9 {
		t.Errorf("500W for 1h = %v kWh saving %v, want 0.5 and 0.5", odKWh, saved)
	}
}

func TestShiftCountHysteresis(t *testing.T) {
	tr := DiurnalLoad(20, 500)
	// One clean excursion above the crossover: exactly 2 shifts.
	if got := ShiftCount(tr, 88, 56); got != 2 {
		t.Errorf("diurnal shifts = %d, want 2", got)
	}
	// A trace that never crosses: zero shifts.
	if got := ShiftCount(DiurnalLoad(5, 50), 88, 56); got != 0 {
		t.Errorf("low trace shifts = %d, want 0", got)
	}
}
