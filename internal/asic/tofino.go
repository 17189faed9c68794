// Package asic models the programmable switch ASIC of §6 (a Barefoot
// Tofino in a 1.28 Tbps, 32x40G "snake" configuration) and the §9.4
// top-of-rack power arithmetic.
//
// The paper reports only normalized power for the ASIC ("due to the large
// variance in power between different ASICs and ASIC vendors"), plus these
// relative anchors, all of which this model encodes:
//
//   - idle power is identical with and without the P4xos program;
//   - running P4xos adds no more than 2% to overall power under load;
//   - the supplied diagnostic program (diag.p4) adds 4.8% at full load;
//   - the min-to-max power span is below 20%;
//   - at 10% utilization the ASIC's absolute dynamic power is ~1/3 of the
//     server's dynamic power at 180 Kpps, while throughput is x1000;
//   - the ASIC sustains > 2.5 B consensus messages per second;
//   - §9.4: switches take < 5 W per 100G port, so a million 1500 B
//     queries per second costs < 1 W of switch dynamic power.
package asic

import "math"

// Program is what a data-plane program loaded on the switch costs and
// carries.
type Program struct {
	// OverheadFraction is the relative power overhead versus plain L2
	// forwarding, phased in with load (identical at idle).
	OverheadFraction float64
	// MsgCapacityKpps is the peak application-message rate (0 for plain
	// forwarding programs).
	MsgCapacityKpps float64
}

// Programs from §6.
var (
	// L2Fwd is the baseline layer-2 forwarding program.
	L2Fwd = Program{}
	// P4xosL2Fwd combines forwarding with the Paxos pipeline: "the switch
	// executes both standard switching and the consensus algorithm".
	P4xosL2Fwd = Program{OverheadFraction: 0.02, MsgCapacityKpps: 2_500_000}
	// DiagP4 is the vendor diagnostic program, diag.p4 (+4.8% at full
	// load).
	DiagP4 = Program{OverheadFraction: 0.048}
)

// The §6 evaluation switch (32x40G snake) is calibrated so the min-max
// span is ~16.5% and the 10%-load dynamic power is about one third of
// the server's dynamic draw at 180 Kpps.
const (
	// idleWatts is the absolute idle draw (never reported raw; use
	// Normalized for paper-style figures).
	idleWatts = 200.0
	// dynamicFullWatts is the extra draw at 100% forwarding load.
	dynamicFullWatts = 33.0
)

// Switch models one programmable switch ASIC.
type Switch struct {
	program Program
}

// NewTofino returns the §6 evaluation switch running plain forwarding.
func NewTofino() *Switch { return &Switch{program: L2Fwd} }

// Load loads a data-plane program.
func (s *Switch) Load(p Program) { s.program = p }

// Power returns absolute watts at the given forwarding load fraction.
// Program overhead phases in with load, so idle power is program-agnostic.
func (s *Switch) Power(load float64) float64 {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	base := idleWatts + dynamicFullWatts*load
	return base * (1 + s.program.OverheadFraction*load)
}

// Normalized returns power at the given load normalized to the idle draw,
// the unit the paper reports for ASICs.
func (s *Switch) Normalized(load float64) float64 { return s.Power(load) / idleWatts }

// DynamicWatts returns power above idle at the given load — the paper's
// "absolute dynamic power consumption" (footnote 3).
func (s *Switch) DynamicWatts(load float64) float64 { return s.Power(load) - s.Power(0) }

// MsgThroughputKpps returns the application message rate at the given
// load fraction for the loaded program.
func (s *Switch) MsgThroughputKpps(load float64) float64 {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	return s.program.MsgCapacityKpps * load
}

// Per-port power arithmetic from §9.4.
const (
	// WattsPer100GPort: ToR switches take "less than 5W per 100G port".
	WattsPer100GPort = 5.0
)

// PortDynamicWatts estimates switch dynamic power for forwarding pps
// packets per second of the given size, using the §9.4 per-port figure.
// A million 1500 B packets per second costs under 1 W.
func PortDynamicWatts(pps float64, packetBytes int) float64 {
	if pps <= 0 || packetBytes <= 0 {
		return 0
	}
	gbps := pps * float64(packetBytes) * 8 / 1e9
	return math.Max(0, gbps/100) * WattsPer100GPort
}
