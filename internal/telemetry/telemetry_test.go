package telemetry

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"incod/internal/simnet"
)

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter(10*time.Millisecond, 10) // 100ms window
	// 1000 events/s for 1 second: one event per ms.
	for i := 0; i < 1000; i++ {
		m.Add(simnet.Time(i)*simnet.Time(time.Millisecond), 1)
	}
	got := m.Rate(simnet.Time(time.Second))
	if math.Abs(got-1000) > 150 {
		t.Errorf("Rate = %v, want ~1000/s", got)
	}
	if m.Total() != 1000 {
		t.Errorf("Total = %d, want 1000", m.Total())
	}
}

func TestRateMeterDecaysToZero(t *testing.T) {
	m := NewRateMeter(10*time.Millisecond, 10)
	m.Add(0, 1000)
	if r := m.Rate(simnet.Time(50 * time.Millisecond)); r == 0 {
		t.Error("rate should still be non-zero inside the window")
	}
	if r := m.Rate(simnet.Time(5 * time.Second)); r != 0 {
		t.Errorf("rate after long idle = %v, want 0", r)
	}
}

func TestRateMeterReset(t *testing.T) {
	m := NewRateMeter(time.Millisecond, 5)
	m.Add(0, 100)
	m.Reset(simnet.Time(time.Millisecond))
	if r := m.Rate(simnet.Time(2 * time.Millisecond)); r != 0 {
		t.Errorf("rate after reset = %v, want 0", r)
	}
}

func TestRateMeterWindow(t *testing.T) {
	m := NewRateMeter(5*time.Millisecond, 20)
	if m.Window() != 100*time.Millisecond {
		t.Errorf("Window = %v, want 100ms", m.Window())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 µs uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	med := h.Median()
	if med < 400*time.Microsecond || med > 600*time.Microsecond {
		t.Errorf("median = %v, want ~500µs", med)
	}
	p99 := h.P99()
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 = %v, want ~990µs", p99)
	}
	if h.Min() != time.Microsecond {
		t.Errorf("Min = %v, want 1µs", h.Min())
	}
	if h.Max() != time.Millisecond {
		t.Errorf("Max = %v, want 1ms", h.Max())
	}
	mean := h.Mean()
	if mean < 450*time.Microsecond || mean > 550*time.Microsecond {
		t.Errorf("mean = %v, want ~500µs", mean)
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	h := NewHistogram()
	if h.Median() != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear histogram")
	}
}

func TestHistogramRelativeErrorProperty(t *testing.T) {
	f := func(us uint32) bool {
		d := time.Duration(us%1e7+1) * time.Microsecond
		h := NewHistogram()
		h.Observe(d)
		got := h.Quantile(1)
		err := math.Abs(float64(got-d)) / float64(d)
		return err < 0.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentilesSorted(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	ps := h.Percentiles(0.99, 0.5, 0.9)
	if !(ps[0] <= ps[1] && ps[1] <= ps[2]) {
		t.Errorf("percentiles not monotone: %v", ps)
	}
}

func TestPowerMeterIntegratesConstantLoad(t *testing.T) {
	sim := simnet.New(1)
	src := PowerSourceFunc(func(simnet.Time) float64 { return 50 })
	m := NewPowerMeter(sim, src, 10*time.Millisecond, false)
	sim.RunFor(2 * time.Second)
	if math.Abs(m.Joules()-100) > 1 {
		t.Errorf("Joules = %v, want ~100 (50W x 2s)", m.Joules())
	}
	if math.Abs(m.AverageWatts()-50) > 0.5 {
		t.Errorf("AverageWatts = %v, want 50", m.AverageWatts())
	}
}

func TestPowerMeterRamp(t *testing.T) {
	sim := simnet.New(1)
	// Power ramps 0..100W over 1s: average 50W.
	src := PowerSourceFunc(func(now simnet.Time) float64 { return 100 * now.Seconds() })
	m := NewPowerMeter(sim, src, time.Millisecond, true)
	sim.RunFor(time.Second)
	if math.Abs(m.Joules()-50) > 0.5 {
		t.Errorf("Joules = %v, want ~50", m.Joules())
	}
	if len(m.Samples()) == 0 {
		t.Error("keep=true retained no samples")
	}
	m.Stop()
	n := len(m.Samples())
	sim.RunFor(time.Second)
	if len(m.Samples()) != n {
		t.Error("meter kept sampling after Stop")
	}
}

// Regression: a meter attached mid-simulation must average over ITS
// window, not over absolute virtual time (caught by the model-vs-sim
// validation experiment).
func TestPowerMeterLateAttach(t *testing.T) {
	sim := simnet.New(1)
	src := PowerSourceFunc(func(simnet.Time) float64 { return 60 })
	sim.RunFor(10 * time.Second) // meter not yet attached
	m := NewPowerMeter(sim, src, 10*time.Millisecond, false)
	sim.RunFor(time.Second)
	if math.Abs(m.AverageWatts()-60) > 0.5 {
		t.Errorf("late-attached AverageWatts = %v, want 60", m.AverageWatts())
	}
	if math.Abs(m.Joules()-60) > 1 {
		t.Errorf("late-attached Joules = %v, want ~60", m.Joules())
	}
}

func TestSumPower(t *testing.T) {
	a := PowerSourceFunc(func(simnet.Time) float64 { return 39 })
	b := PowerSourceFunc(func(simnet.Time) float64 { return 20 })
	if got := (SumPower{a, b}).PowerWatts(0); got != 59 {
		t.Errorf("SumPower = %v, want 59", got)
	}
}

// The one counter family serves the sim-time clients and roles as well as
// the live dataplane: names keep first-use order, String sorts them (so
// rendered tables do not depend on which event fired first), and a
// Handle is the same cell Inc and Get address.
func TestCounters(t *testing.T) {
	c := NewAtomicCounters()
	c.Inc("miss", 1)
	c.Inc("hit", 3)
	c.Handle("hit").Add(2)
	if c.Get("hit") != 5 || c.Get("miss") != 1 || c.Get("absent") != 0 {
		t.Errorf("counter values wrong: %s", c)
	}
	if got := c.String(); got != "hit=5 miss=1" {
		t.Errorf("String() = %q", got)
	}
	if names := c.Names(); len(names) != 2 || names[0] != "miss" || names[1] != "hit" {
		t.Errorf("Names() = %v", names)
	}
}
