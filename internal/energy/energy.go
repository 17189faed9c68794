// Package energy implements the §8 energy model of the paper, built on the
// Niccolini et al. decomposition:
//
//	E = Pd(f) * Td(W, f)  +  Ps * Ts  +  Pi * Ti        (Equation 1)
//
// where Pd is active (dynamic) power, Td the active time for W packets at
// frequency f, Ps/Ts the sleep-transition power/time and Pi/Ti the idle
// power/time. The packet rate is R = W / Td.
//
// The package answers the paper's two §8 questions: (1) should an operator
// of fixed-function devices adopt programmable ones, which hinges on the
// idle-power penalty Pi_N vs Pi_S; and (2) given programmable devices,
// when should a workload move into the network — at the rate R* where
// Pd_N(R*) = Pd_S(R*) (power.Crossover finds it), since the device's
// idle/sleep power is paid regardless of workload placement.
package energy

import "time"

// Profile describes one placement (software or network) of a workload.
type Profile struct {
	Name string
	// DynamicWatts returns active power as a function of rate in kpps.
	DynamicWatts func(kpps float64) float64
	// SleepWatts is drawn while transitioning from sleep (Ps).
	SleepWatts float64
	// IdleWatts is drawn while idle (Pi).
	IdleWatts float64
}

// Breakdown is the three-term energy split of Equation 1, in joules.
type Breakdown struct {
	ActiveJ float64 // Pd(f) * Td(W, f)
	SleepJ  float64 // Ps * Ts
	IdleJ   float64 // Pi * Ti
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 { return b.ActiveJ + b.SleepJ + b.IdleJ }

// Energy evaluates Equation 1 for a workload of W packets processed at
// rate kpps (determining Td = W/R), with ts spent in sleep transitions and
// ti idle.
func (p Profile) Energy(wPackets uint64, kpps float64, ts, ti time.Duration) Breakdown {
	var td float64 // seconds
	if kpps > 0 {
		td = float64(wPackets) / (kpps * 1000)
	}
	return Breakdown{
		ActiveJ: p.DynamicWatts(kpps) * td,
		SleepJ:  p.SleepWatts * ts.Seconds(),
		IdleJ:   p.IdleWatts * ti.Seconds(),
	}
}

// AdoptionPenaltyWatts answers the first §8 question: the idle-power
// penalty of deploying a programmable device instead of a standard one,
// assuming it is not (yet) used for in-network computing. Negative values
// mean the programmable device is strictly cheaper (§9.4 observes this for
// some Arista switches).
func AdoptionPenaltyWatts(standardIdle, programmableIdle float64) float64 {
	return programmableIdle - standardIdle
}

// OpsPerWatt is the §6 efficiency metric: operations per second per watt.
// It returns 0 when watts is not positive.
func OpsPerWatt(opsPerSec, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return opsPerSec / watts
}

// Ladder compares placements by ops/W at their peak rates, reproducing the
// §6 observation: software achieves 10K's msgs/W, FPGA 100K's, ASIC 10M's.
type Ladder struct {
	Name      string
	PeakKpps  float64
	PeakWatts float64
}

// Efficiency returns messages per second per watt at peak.
func (l Ladder) Efficiency() float64 { return OpsPerWatt(l.PeakKpps*1000, l.PeakWatts) }

// SavingFraction returns how much energy placement b saves over placement
// a for the same work (1 - Eb/Ea); negative when b is worse.
func SavingFraction(a, b Breakdown) float64 {
	ta := a.Total()
	if ta == 0 {
		return 0
	}
	return 1 - b.Total()/ta
}
