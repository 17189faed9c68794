package power

import "math"

// SoftwareCurve maps an offered query rate to whole-server wall power for
// one software application + NIC combination. The functional form is
//
//	P(R) = Idle + Jump*(1 - exp(-R/JumpScale)) + Linear*R + Quad*R^2
//
// with R in kpps. The saturating jump captures the §7 observation that a
// server's power leaps as soon as cores wake, and the polynomial tail
// captures frequency/turbo effects toward peak load. The constants below
// are calibrated so that every crossover and peak-power statement in §4
// holds (see the DESIGN.md experiment index).
type SoftwareCurve struct {
	// IdleWatts is the wall power of the idle server including its NIC.
	IdleWatts float64
	// JumpWatts and JumpScaleKpps shape the low-load jump.
	JumpWatts     float64
	JumpScaleKpps float64
	// LinearWattsPerMpps and QuadWattsPerMpps2 shape the tail.
	LinearWattsPerMpps float64
	QuadWattsPerMpps2  float64
	// PeakKpps is the peak sustainable rate; beyond it the server stays
	// at peak power and sheds load.
	PeakKpps float64
}

// Power returns wall watts at rate kpps. Rates beyond PeakKpps clamp.
func (c SoftwareCurve) Power(kpps float64) float64 {
	if kpps < 0 {
		kpps = 0
	}
	if c.PeakKpps > 0 && kpps > c.PeakKpps {
		kpps = c.PeakKpps
	}
	p := c.IdleWatts
	if c.JumpScaleKpps > 0 {
		p += c.JumpWatts * (1 - math.Exp(-kpps/c.JumpScaleKpps))
	} else if kpps > 0 {
		p += c.JumpWatts
	}
	m := kpps / 1000 // Mpps
	p += c.LinearWattsPerMpps*m + c.QuadWattsPerMpps2*m*m
	return p
}

// Utilization returns the fraction of peak capacity consumed at the
// offered rate, clamped to 1.
func (c SoftwareCurve) Utilization(offeredKpps float64) float64 {
	if c.PeakKpps <= 0 {
		return 0
	}
	u := offeredKpps / c.PeakKpps
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// Software application curves from §4. Idle is 39 W in every case (the §4.2
// measurement of the idle i7 server with its NIC).
var (
	// MemcachedMellanox: memcached v1.5.1 with the Mellanox 10GE NIC
	// (the Intel X520 bottlenecked KVS, §4.1). Peak ~1 Mpps on 4 cores;
	// the software/hardware crossover lands at ~80 kpps (§4.2).
	MemcachedMellanox = SoftwareCurve{
		IdleWatts:          39,
		JumpWatts:          24,
		JumpScaleKpps:      70,
		LinearWattsPerMpps: 48,
		PeakKpps:           1000,
	}

	// MemcachedIntelX520: with the Intel NIC the host is more power
	// efficient at low load (crossover moves past 300 kpps) but peaks
	// lower (§4.2).
	MemcachedIntelX520 = SoftwareCurve{
		IdleWatts:          39,
		JumpWatts:          12,
		JumpScaleKpps:      70,
		LinearWattsPerMpps: 25,
		PeakKpps:           700,
	}

	// LibpaxosLeader / LibpaxosAcceptor: single-core libpaxos (§4.3),
	// acceptor peak 178 K msgs/s; crossover with P4xos at ~150 kpps.
	LibpaxosLeader = SoftwareCurve{
		IdleWatts:          39,
		JumpWatts:          8.5,
		JumpScaleKpps:      40,
		LinearWattsPerMpps: 11.3,
		PeakKpps:           170,
	}
	LibpaxosAcceptor = SoftwareCurve{
		IdleWatts:          39,
		JumpWatts:          8.3,
		JumpScaleKpps:      40,
		LinearWattsPerMpps: 11.0,
		PeakKpps:           178,
	}

	// DPDKLeader / DPDKAcceptor: kernel-bypass libpaxos. "Power
	// consumption ... is high even under low load, and remains almost
	// constant" because DPDK constantly polls (§4.3).
	DPDKLeader = SoftwareCurve{
		IdleWatts:          74,
		JumpWatts:          0,
		LinearWattsPerMpps: 3,
		PeakKpps:           900,
	}
	DPDKAcceptor = SoftwareCurve{
		IdleWatts:          72,
		JumpWatts:          0,
		LinearWattsPerMpps: 3,
		PeakKpps:           950,
	}

	// NSDServer: the NSD authoritative name server (§4.4). Peak 956 Kqps;
	// at peak the server draws ~2x Emu DNS's 48 W; the crossover with the
	// Emu DNS hardware happens by ~150-200 kpps.
	NSDServer = SoftwareCurve{
		IdleWatts:          39,
		JumpWatts:          5,
		JumpScaleKpps:      60,
		LinearWattsPerMpps: 22.4,
		QuadWattsPerMpps2:  33.5,
		PeakKpps:           956,
	}
)

// LibpaxosRole is the §4.3 curve a libpaxos role is modeled on, on both
// substrates: the leader's for the role that originates proposals, the
// acceptor's for the roles that answer them (acceptor, learner).
func LibpaxosRole(role string) SoftwareCurve {
	if role == "leader" {
		return LibpaxosLeader
	}
	return LibpaxosAcceptor
}

// Crossover finds the lowest rate (kpps) in [0, limit] at which hw(R) <=
// sw(R), by bisection over the monotone difference. It returns -1 if the
// hardware never becomes cheaper within the limit.
//
// This answers §8's second question. Equation 1 splits energy into
// active, sleep and idle terms, E = Pd(f)·Td(W, f) + Ps·Ts + Pi·Ti. A
// deployed programmable device pays its sleep and idle terms wherever
// the workload runs, so the workload belongs in the network above the
// rate R* where Pd_N(R*) = Pd_S(R*).
func Crossover(sw, hw func(kpps float64) float64, limitKpps float64) float64 {
	f := func(r float64) float64 { return sw(r) - hw(r) }
	if f(0) >= 0 {
		return 0
	}
	if f(limitKpps) < 0 {
		return -1
	}
	lo, hi := 0.0, limitKpps
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Saving returns the fraction of the software-only power or energy that
// the on-demand placement saves, 1 − onDemand/software: the §9 headline
// metric. It is negative when on-demand costs more, and 0 when software
// is not positive.
func Saving(software, onDemand float64) float64 {
	if software <= 0 {
		return 0
	}
	return 1 - onDemand/software
}
