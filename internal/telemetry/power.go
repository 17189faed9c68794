package telemetry

import (
	"time"

	"incod/internal/simnet"
)

// PowerSource is anything whose instantaneous power draw can be sampled.
// Device models in internal/power, internal/fpga and internal/asic all
// implement it.
type PowerSource interface {
	// PowerWatts returns the instantaneous power draw in watts at virtual
	// time now.
	PowerWatts(now simnet.Time) float64
}

// PowerSourceFunc adapts a function to PowerSource.
type PowerSourceFunc func(now simnet.Time) float64

// PowerWatts implements PowerSource.
func (f PowerSourceFunc) PowerWatts(now simnet.Time) float64 { return f(now) }

// SumPower is a PowerSource adding the draw of several sources, e.g. a
// server plus the NetFPGA card it hosts (§4.2: "the power consumption
// evaluation of LaKe includes the combined power consumption of the
// NetFPGA board and the server").
type SumPower []PowerSource

// PowerWatts implements PowerSource.
func (s SumPower) PowerWatts(now simnet.Time) float64 {
	var total float64
	for _, src := range s {
		total += src.PowerWatts(now)
	}
	return total
}

// PowerMeter integrates a PowerSource over virtual time, standing in for
// the SHW-3A watt-hour meter of §4.1. It samples at a fixed period and
// accumulates energy by the trapezoid rule.
type PowerMeter struct {
	src     PowerSource
	sim     *simnet.Simulator
	period  time.Duration
	cancel  func()
	startAt simnet.Time
	lastAt  simnet.Time
	lastW   float64
	joules  float64
	samples []Sample
	keep    bool
}

// Sample is one power reading.
type Sample struct {
	At    simnet.Time
	Watts float64
}

// NewPowerMeter attaches a meter to src, sampling every period. If keep is
// true all samples are retained for timeline plots (Figure 6).
func NewPowerMeter(sim *simnet.Simulator, src PowerSource, period time.Duration, keep bool) *PowerMeter {
	m := &PowerMeter{src: src, sim: sim, period: period, keep: keep}
	m.startAt = sim.Now()
	m.lastAt = m.startAt
	m.lastW = src.PowerWatts(m.lastAt)
	m.cancel = sim.Every(period, m.sample)
	return m
}

func (m *PowerMeter) sample() {
	now := m.sim.Now()
	w := m.src.PowerWatts(now)
	dt := now.Sub(m.lastAt).Seconds()
	m.joules += (w + m.lastW) / 2 * dt
	m.lastAt, m.lastW = now, w
	if m.keep {
		m.samples = append(m.samples, Sample{At: now, Watts: w})
	}
}

// Stop detaches the meter from the simulator clock.
func (m *PowerMeter) Stop() { m.cancel() }

// Joules returns the energy integrated so far.
func (m *PowerMeter) Joules() float64 { return m.joules }

// AverageWatts returns the mean power since the meter was attached.
func (m *PowerMeter) AverageWatts() float64 {
	elapsed := m.lastAt.Sub(m.startAt).Seconds()
	if elapsed == 0 {
		return m.lastW
	}
	return m.joules / elapsed
}

// Samples returns retained samples (empty unless keep was set).
func (m *PowerMeter) Samples() []Sample { return m.samples }
