package fleet

import (
	"fmt"

	"incod/internal/fpga"
	"incod/internal/power"
)

// KindSpec is the fleet's model of one daemon flavor: which §4 software
// power curve its host serving follows, what its offload tier draws, and
// what hit ratio to expect from a tier that has not yet served (once a
// member's tier has real measurements, those win).
type KindSpec struct {
	// Service is the member's registered service name.
	Service string
	// Curve is the §4 software power curve of the host implementation.
	Curve power.SoftwareCurve
	// TierActiveWatts is the modeled in-server draw of the lit tier,
	// used to rank dark candidates before their tier reports real power.
	TierActiveWatts float64
	// PredictedHitRatio estimates the tier hit ratio for a member whose
	// tier has never served (no measured ratio yet).
	PredictedHitRatio float64
}

// LookupKind resolves a flavor name, "kvs", "dns" or "paxos", which is
// also the trafficgen protocol of the flavor's traffic. Tier draws derive
// from the §5 fpga board models rather than fresh constants.
func LookupKind(kind string) (KindSpec, error) {
	lake := fpga.NewBoard(fpga.LaKeDesign)
	p4 := fpga.NewBoard(fpga.P4xosDesign)
	emu := fpga.NewBoard(fpga.EmuDNSDesign)
	spec, ok := map[string]KindSpec{
		"kvs": {
			Service: "kvs",
			Curve:   power.MemcachedMellanox,
			// LaKe's cache keeps hot keys on the card; a Zipf workload
			// lands most GETs there.
			TierActiveWatts:   lake.CardWatts(0.5),
			PredictedHitRatio: 0.9,
		},
		"dns": {
			Service: "dns",
			Curve:   power.NSDServer,
			// Emu DNS holds the whole zone; only out-of-zone queries fall
			// through.
			TierActiveWatts:   emu.CardWatts(0.5),
			PredictedHitRatio: 0.95,
		},
		"paxos": {
			Service: "paxos",
			Curve:   power.LibpaxosAcceptor,
			// P4xos acceptors handle every classified consensus message.
			TierActiveWatts:   p4.CardWatts(0.5),
			PredictedHitRatio: 1.0,
		},
	}[kind]
	if !ok {
		return KindSpec{}, fmt.Errorf("fleet: unknown member kind %q (want kvs, dns or paxos)", kind)
	}
	return spec, nil
}
