package cluster

import (
	"incod/internal/asic"
	"incod/internal/power"
)

// §9.4 analysis: a ToR switch serving a rack of n nodes. For the switch,
// Pi_N = Pi_S (the device forwards regardless), so the tipping point
// compares dynamic power only — and switch dynamic power is so small
// (<5 W per 100G port) that the tipping point "R is almost zero".

// The §9.4 rack.
const (
	// rackNodes is how many servers the ToR switch serves.
	rackNodes = 24
	// packetBytes sizes the application's packets.
	packetBytes = 1500
)

// SwitchTippingKpps returns the rate at which running the workload on the
// ToR switch becomes cheaper than one server on curve running it, using
// the §9.4 per-port dynamic-power arithmetic for the switch side.
func SwitchTippingKpps(curve power.SoftwareCurve, limitKpps float64) float64 {
	server := func(kpps float64) float64 {
		return curve.Power(kpps) - curve.Power(0)
	}
	tor := func(kpps float64) float64 {
		return asic.PortDynamicWatts(kpps*1000, packetBytes)
	}
	return power.Crossover(server, tor, limitKpps)
}

// CacheSplitPower models the §9.4 partial-offload case: the switch serves
// hitRatio of the aggregate rack request rate (in kpps) and the rack's
// servers, each on curve, serve the rest. It returns total dynamic watts
// for the split and for the host-only deployment, so callers can see the
// efficiency as a function of the hit:miss ratio.
func CacheSplitPower(curve power.SoftwareCurve, rackKpps, hitRatio float64) (split, hostOnly float64) {
	if hitRatio < 0 {
		hitRatio = 0
	}
	if hitRatio > 1 {
		hitRatio = 1
	}
	hostDyn := func(kpps float64) float64 {
		return curve.Power(kpps) - curve.Power(0)
	}
	switchDyn := asic.PortDynamicWatts(rackKpps*hitRatio*1000, packetBytes)
	split = switchDyn + rackNodes*hostDyn(rackKpps*(1-hitRatio)/rackNodes)
	hostOnly = rackNodes * hostDyn(rackKpps/rackNodes)
	return split, hostOnly
}

// RequestHalving quantifies the §10 observation that running in a switch
// halves the application-specific packets through it: request and reply
// traverse as one packet (in as the request, out as the reply) instead of
// two.
func RequestHalving(requestsPerSec float64) (switchPackets, serverPackets float64) {
	return requestsPerSec, 2 * requestsPerSec
}
