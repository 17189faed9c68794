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
	// Kind is the flavor name: "kvs", "dns" or "paxos".
	Kind string
	// Service is the daemon's registered service name on /v1.
	Service string
	// Binary is the daemon executable that serves this kind.
	Binary string
	// Proto is the incloadgen protocol generating this kind's traffic.
	Proto string
	// Curve is the §4 software power curve of the host implementation.
	Curve power.SoftwareCurve
	// TierActiveWatts is the modeled in-server draw of the lit tier,
	// used to rank dark candidates before their tier reports real power.
	TierActiveWatts float64
	// PredictedHitRatio estimates the tier hit ratio for a member whose
	// tier has never served (no measured ratio yet).
	PredictedHitRatio float64
}

// KindSpecs returns the three built-in daemon flavors, with tier draws
// derived from the §5 fpga board models rather than fresh constants.
func KindSpecs() map[string]KindSpec {
	lake := fpga.NewBoard(fpga.LaKeDesign)
	p4 := fpga.NewBoard(fpga.P4xosDesign)
	emu := fpga.NewBoard(fpga.EmuDNSDesign)
	return map[string]KindSpec{
		"kvs": {
			Kind:    "kvs",
			Service: "kvs",
			Binary:  "inckvsd",
			Proto:   "kvs",
			Curve:   power.MemcachedMellanox,
			// LaKe's cache keeps hot keys on the card; a Zipf workload
			// lands most GETs there.
			TierActiveWatts:   lake.CardWatts(0.5),
			PredictedHitRatio: 0.9,
		},
		"dns": {
			Kind:    "dns",
			Service: "dns",
			Binary:  "incdnsd",
			Proto:   "dns",
			Curve:   power.NSDServer,
			// Emu DNS holds the whole zone; only out-of-zone queries fall
			// through.
			TierActiveWatts:   emu.CardWatts(0.5),
			PredictedHitRatio: 0.95,
		},
		"paxos": {
			Kind:    "paxos",
			Service: "paxos",
			Binary:  "incpaxosd",
			Proto:   "paxos",
			Curve:   power.LibpaxosAcceptor,
			// P4xos acceptors handle every classified consensus message.
			TierActiveWatts:   p4.CardWatts(0.5),
			PredictedHitRatio: 1.0,
		},
	}
}

// LookupKind resolves a flavor name against KindSpecs.
func LookupKind(kind string) (KindSpec, error) {
	spec, ok := KindSpecs()[kind]
	if !ok {
		return KindSpec{}, fmt.Errorf("fleet: unknown member kind %q (want kvs, dns or paxos)", kind)
	}
	return spec, nil
}
