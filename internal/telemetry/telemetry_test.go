package telemetry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"incod/internal/simnet"
)

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewAtomicRateMeter(10*time.Millisecond, 10) // 100ms window
	// 1000 events/s for 1 second: one event per ms.
	for i := 0; i < 1000; i++ {
		m.Rate(time.Duration(i) * time.Millisecond)
		m.Add(1)
	}
	got := m.Rate(time.Second)
	if math.Abs(got-1000) > 150 {
		t.Errorf("Rate = %v, want ~1000/s", got)
	}
	if m.Total() != 1000 {
		t.Errorf("Total = %d, want 1000", m.Total())
	}
}

func TestRateMeterDecaysToZero(t *testing.T) {
	m := NewAtomicRateMeter(10*time.Millisecond, 10)
	m.Add(1000)
	// A window that has not filled yet still divides by all of it.
	if r := m.Rate(50 * time.Millisecond); r != 10000 {
		t.Errorf("rate inside the window = %v, want 1000 events / 100ms", r)
	}
	if r := m.Rate(5 * time.Second); r != 0 {
		t.Errorf("rate after long idle = %v, want 0", r)
	}
}

func TestRateMeterWindow(t *testing.T) {
	m := NewAtomicRateMeter(5*time.Millisecond, 20)
	if m.Window() != 100*time.Millisecond {
		t.Errorf("Window = %v, want 100ms", m.Window())
	}
}

// A reader that looks less often than once a bucket gets the boundaries
// it missed from the line between its looks: steady traffic reads steady
// whether it polls inside the window or stays away for several, with no
// dip after an absence. Looks are 50ms into a 100ms bucket, so the window
// holds 950ms of traffic and still divides by its whole second.
func TestRateMeterSlowReader(t *testing.T) {
	m := NewAtomicRateMeter(100*time.Millisecond, 10) // the live meters' 1s window
	at := 2050 * time.Millisecond
	m.Rate(at)
	for _, tc := range []struct {
		gap  time.Duration
		want float64
	}{
		{300 * time.Millisecond, 300}, // all there is: the window began idle
		{time.Second, 950},
		{5 * time.Second, 950},
		{100 * time.Millisecond, 950},
		{300 * time.Millisecond, 950},
	} {
		at += tc.gap
		m.Add(uint64(1000 * tc.gap.Seconds())) // 1000 events/s meanwhile
		if r := m.Rate(at); math.Abs(r-tc.want) > 1 {
			t.Errorf("look at %v, %v after the last: rate %v, want %v", at, tc.gap, r, tc.want)
		}
	}
	// The absence itself ages out like any other traffic.
	if r := m.Rate(at + 2*time.Second); r != 0 {
		t.Errorf("rate after 2s of silence = %v, want 0", r)
	}
}

// bucketRing is the virtual-clock meter this package used to carry beside
// the atomic one, kept as the reference for the reader-side window: a
// ring of per-bucket counts, rotated and cleared by whoever touches it.
type bucketRing struct {
	bucket    time.Duration
	buckets   []uint64
	headStart time.Duration
	head      int
}

func (m *bucketRing) window() time.Duration { return m.bucket * time.Duration(len(m.buckets)) }

func (m *bucketRing) advance(now time.Duration) {
	for now >= m.headStart+m.bucket {
		m.head = (m.head + 1) % len(m.buckets)
		m.buckets[m.head] = 0
		m.headStart += m.bucket
		// If the meter was idle far longer than the window, fast-forward.
		if now-m.headStart > m.window()*2 {
			skip := (now - m.headStart) / m.bucket
			m.headStart += skip / time.Duration(len(m.buckets)) * m.window()
			for i := range m.buckets {
				m.buckets[i] = 0
			}
		}
	}
}

func (m *bucketRing) add(now time.Duration, n uint64) {
	m.advance(now)
	m.buckets[m.head] += n
}

func (m *bucketRing) rate(now time.Duration) float64 {
	m.advance(now)
	var sum uint64
	for _, b := range m.buckets {
		sum += b
	}
	return float64(sum) / m.window().Seconds()
}

// The reader-side window against the ring of counts on random schedules
// of reads and adds, with the caller looking on both sides of every add
// as simhost.Node does: every read must agree exactly, through bursts
// inside one bucket, reads on a boundary and idle gaps of many windows.
func TestRateMeterMatchesBucketRing(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bucket := time.Duration(1+rng.Intn(20)) * time.Millisecond
		n := 1 + rng.Intn(12)
		m := NewAtomicRateMeter(bucket, n)
		ref := &bucketRing{bucket: bucket, buckets: make([]uint64, n)}
		var now time.Duration
		for step := 0; step < 2000; step++ {
			switch rng.Intn(10) {
			case 0: // idle for up to five windows
				now += time.Duration(rng.Int63n(int64(5 * ref.window())))
			case 1: // land exactly on a boundary
				now = (now/bucket + 1) * bucket
			case 2, 3: // same instant
			default:
				now += time.Duration(rng.Int63n(int64(bucket)))
			}
			if got, want := m.Rate(now), ref.rate(now); got != want {
				t.Fatalf("seed %d step %d at %v: rate %v, the ring says %v", seed, step, now, got, want)
			}
			if rng.Intn(3) > 0 {
				k := uint64(1 + rng.Intn(4))
				m.Add(k)
				ref.add(now, k)
				if got, want := m.Rate(now), ref.rate(now); got != want {
					t.Fatalf("seed %d step %d at %v after add: rate %v, the ring says %v", seed, step, now, got, want)
				}
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 µs uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	med := h.Median()
	if med < 400*time.Microsecond || med > 600*time.Microsecond {
		t.Errorf("median = %v, want ~500µs", med)
	}
	p99 := h.P99()
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 = %v, want ~990µs", p99)
	}
	if lo := h.Quantile(0); lo < 975*time.Nanosecond || lo > 1025*time.Nanosecond {
		t.Errorf("Quantile(0) = %v, want 1µs", lo)
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
	if h.Median() != 0 || h.Mean() != 0 || h.Quantile(0) != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(time.Millisecond)
	h.Reset()
	if h.Mean() != 0 || h.Quantile(1) != 0 || h.Max() != 0 {
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
	ps := []time.Duration{h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)}
	if !(ps[0] <= ps[1] && ps[1] <= ps[2]) {
		t.Errorf("percentiles not monotone: %v", ps)
	}
}

type powerFunc func(now simnet.Time) float64

func (f powerFunc) PowerWatts(now simnet.Time) float64 { return f(now) }

func TestPowerMeterIntegratesConstantLoad(t *testing.T) {
	sim := simnet.New(1)
	m := NewPowerMeter(sim, powerFunc(func(simnet.Time) float64 { return 50 }), 10*time.Millisecond)
	sim.RunFor(2 * time.Second)
	if math.Abs(m.KWh()*3.6e6-100) > 1 {
		t.Errorf("Joules = %v, want ~100 (50W x 2s)", m.KWh()*3.6e6)
	}
	if math.Abs(m.AverageWatts()-50) > 0.5 {
		t.Errorf("AverageWatts = %v, want 50", m.AverageWatts())
	}
	// A kilowatt for an hour, one observation a second, is one kWh.
	var hour PowerMeter
	for s := 0; s <= 3600; s++ {
		hour.Observe(time.Duration(s)*time.Second, 1000)
	}
	if math.Abs(hour.KWh()-1) > 1e-9 || hour.Elapsed() != time.Hour {
		t.Errorf("1kW for 1h = %v kWh over %v, want 1 over 1h", hour.KWh(), hour.Elapsed())
	}
}

func TestPowerMeterRamp(t *testing.T) {
	sim := simnet.New(1)
	// Power ramps 0..100W over 1s: average 50W.
	m := NewPowerMeter(sim, powerFunc(func(now simnet.Time) float64 { return 100 * now.Seconds() }), time.Millisecond)
	sim.RunFor(time.Second)
	if math.Abs(m.KWh()*3.6e6-50) > 0.5 {
		t.Errorf("Joules = %v, want ~50", m.KWh()*3.6e6)
	}
}

// Regression: a meter attached mid-simulation must average over ITS
// window, not over absolute virtual time (caught by the model-vs-sim
// validation experiment).
func TestPowerMeterLateAttach(t *testing.T) {
	sim := simnet.New(1)
	sim.RunFor(10 * time.Second) // meter not yet attached
	m := NewPowerMeter(sim, powerFunc(func(simnet.Time) float64 { return 60 }), 10*time.Millisecond)
	sim.RunFor(time.Second)
	if math.Abs(m.AverageWatts()-60) > 0.5 {
		t.Errorf("late-attached AverageWatts = %v, want 60", m.AverageWatts())
	}
	if math.Abs(m.KWh()*3.6e6-60) > 1 {
		t.Errorf("late-attached Joules = %v, want ~60", m.KWh()*3.6e6)
	}
}

// Observe on its own: the zero meter starts at its first observation,
// which adds nothing, and each later one adds the trapezoid since the
// previous one.
func TestPowerMeterObserve(t *testing.T) {
	var m PowerMeter
	m.Observe(5*time.Second, 40)
	if m.KWh()*3.6e6 != 0 || m.Elapsed() != 0 {
		t.Errorf("first observation: %v J over %v, want nothing", m.KWh()*3.6e6, m.Elapsed())
	}
	if m.AverageWatts() != 40 {
		t.Errorf("zero-elapsed AverageWatts = %v, want the last draw 40", m.AverageWatts())
	}
	// A step from 40 W to 100 W held for 2 s, observed at each edge: the
	// interval that spans the step is charged the mean of its two ends.
	m.Observe(6*time.Second, 40)  // +40 J
	m.Observe(7*time.Second, 100) // +70 J
	m.Observe(9*time.Second, 100) // +200 J
	if m.KWh()*3.6e6 != 310 || m.Elapsed() != 4*time.Second {
		t.Errorf("step: %v J over %v, want 310 J over 4s", m.KWh()*3.6e6, m.Elapsed())
	}
	if m.AverageWatts() != 77.5 {
		t.Errorf("step AverageWatts = %v, want 77.5", m.AverageWatts())
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
}
