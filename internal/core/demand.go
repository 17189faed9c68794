package core

import "incod/internal/power"

// DemandCurve composes a software power curve and a hardware power curve
// into the on-demand envelope of Figure 5: below the crossover the service
// runs (and the system pays) the software side; above it, the hardware
// side. "At low utilization power consumption is derived from the
// properties of the software-based system. As utilization increases,
// processing is shifted to the network."
type DemandCurve struct {
	Name string
	// SW and HW map rate (kpps) to total system watts for each placement.
	SW func(kpps float64) float64
	HW func(kpps float64) float64
	// CrossKpps is the shift point. NewDemandCurve derives it from the
	// curves' intersection.
	CrossKpps float64
}

// NewDemandCurve builds the envelope, locating the crossover within
// [0, limitKpps]. If the hardware never wins, the envelope is pure
// software (CrossKpps < 0).
func NewDemandCurve(name string, sw, hw func(kpps float64) float64, limitKpps float64) DemandCurve {
	return DemandCurve{
		Name:      name,
		SW:        sw,
		HW:        hw,
		CrossKpps: power.Crossover(sw, hw, limitKpps),
	}
}

// Power returns the envelope's watts at the given rate.
func (d DemandCurve) Power(kpps float64) float64 {
	if d.CrossKpps >= 0 && kpps >= d.CrossKpps {
		return d.HW(kpps)
	}
	return d.SW(kpps)
}

// SavingFraction returns the §9 headline metric at a rate: the fraction of
// software power the on-demand placement saves (Figure 5; "saves up to 50%
// of the power compared with software-based solutions").
func (d DemandCurve) SavingFraction(kpps float64) float64 {
	return power.Saving(d.SW(kpps), d.Power(kpps))
}

// MaxSaving scans rates up to limitKpps and returns the best saving
// fraction and the rate where it occurs.
func (d DemandCurve) MaxSaving(limitKpps float64, steps int) (frac, atKpps float64) {
	if steps < 1 {
		steps = 100
	}
	for i := 0; i <= steps; i++ {
		r := limitKpps * float64(i) / float64(steps)
		if f := d.SavingFraction(r); f > frac {
			frac, atKpps = f, r
		}
	}
	return frac, atKpps
}
