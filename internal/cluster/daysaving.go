package cluster

import (
	"math"
	"time"

	"incod/internal/power"
	"incod/internal/telemetry"
)

// LoadTrace is an offered-load series in kpps, one sample per second —
// the demand a service sees over (part of) a day.
type LoadTrace []float64

// DiurnalLoad synthesizes a day of per-second load: quiet nights around
// nightKpps, busy daytime ramping to peakKpps, following the §9.3
// observation that on-demand pays off when load swings across the
// crossover on scheduling timescales.
func DiurnalLoad(nightKpps, peakKpps float64) LoadTrace {
	const daySeconds = 24 * 3600
	out := make(LoadTrace, daySeconds)
	for s := range out {
		h := float64(s) / 3600
		switch {
		case h < 7 || h >= 23:
			out[s] = nightKpps
		default:
			// Ramp up to the afternoon peak and back down.
			frac := 1 - math.Abs(h-15)/8 // 0 at 7h/23h, 1 at 15h
			out[s] = nightKpps + (peakKpps-nightKpps)*frac
		}
	}
	return out
}

// DaySaving meters always-software and an on-demand envelope over the
// trace, one sample per second, and returns (software kWh, on-demand
// kWh, saved fraction).
func DaySaving(t LoadTrace, sw, onDemand func(kpps float64) float64) (swKWh, odKWh, savedFrac float64) {
	var swMeter, odMeter telemetry.PowerMeter
	for s, kpps := range t {
		at := time.Duration(s) * time.Second
		swMeter.Observe(at, sw(kpps))
		odMeter.Observe(at, onDemand(kpps))
	}
	return swMeter.KWh(), odMeter.KWh(), power.Saving(swMeter.KWh(), odMeter.KWh())
}

// ShiftCount reports how many placement changes an on-demand controller
// with the given hysteresis pair would make over the trace — the §9.3
// "is the variance low enough for the scheduling period?" question made
// concrete.
func ShiftCount(t LoadTrace, upKpps, downKpps float64) int {
	inNetwork := false
	shifts := 0
	for _, kpps := range t {
		switch {
		case !inNetwork && kpps > upKpps:
			inNetwork = true
			shifts++
		case inNetwork && kpps < downKpps:
			inNetwork = false
			shifts++
		}
	}
	return shifts
}
