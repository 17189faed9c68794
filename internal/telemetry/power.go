package telemetry

import (
	"time"

	"incod/internal/simnet"
)

// PowerSource is a power draw sampled on the simulator's clock, such as a
// simulated serving node of internal/simhost.
type PowerSource interface {
	// PowerWatts returns the draw in watts at virtual time now.
	PowerWatts(now simnet.Time) float64
}

// PowerMeter is the repo's one energy account, standing in for the SHW-3A
// watt-hour meter of §4.1: it integrates observed draws by the trapezoid
// rule on whatever clock the caller observes on. The zero value is an
// empty meter; the first observation starts it and adds no energy.
type PowerMeter struct {
	started         bool
	startAt, lastAt time.Duration
	lastW, joules   float64
}

// Observe records a draw of watts at time at, adding the trapezoid between
// it and the previous observation.
func (m *PowerMeter) Observe(at time.Duration, watts float64) {
	if m.started {
		m.joules += (watts + m.lastW) / 2 * (at - m.lastAt).Seconds()
	} else {
		m.started, m.startAt = true, at
	}
	m.lastAt, m.lastW = at, watts
}

// KWh returns the energy integrated so far in kilowatt-hours.
func (m *PowerMeter) KWh() float64 { return m.joules / 3.6e6 }

// Elapsed returns the time between the first and the last observation.
func (m *PowerMeter) Elapsed() time.Duration { return m.lastAt - m.startAt }

// AverageWatts returns the mean draw since the first observation, or the
// last draw while no time has elapsed.
func (m *PowerMeter) AverageWatts() float64 {
	elapsed := m.Elapsed().Seconds()
	if elapsed == 0 {
		return m.lastW
	}
	return m.joules / elapsed
}

// NewPowerMeter attaches a meter to src on the simulator's clock: it
// observes src now and every period after, for the rest of the run.
func NewPowerMeter(sim *simnet.Simulator, src PowerSource, period time.Duration) *PowerMeter {
	m := &PowerMeter{}
	observe := func() {
		now := sim.Now()
		m.Observe(time.Duration(now), src.PowerWatts(now))
	}
	observe()
	sim.Every(period, observe)
	return m
}
