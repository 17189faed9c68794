package experiments

import (
	"incod/internal/core"
	"incod/internal/power"
)

func init() {
	register("fig5", "On-demand power envelopes (Figure 5)", fig5)
}

// DemandCurves builds the three Figure 5 envelopes from the calibrated
// curves.
func DemandCurves() map[string]core.DemandCurve {
	return map[string]core.DemandCurve{
		"kvs":   core.NewDemandCurve("kvs", power.MemcachedMellanox.Power, lakePower, 2000),
		"paxos": core.NewDemandCurve("paxos", power.LibpaxosLeader.Power, p4xosPower, 1000),
		"dns":   core.NewDemandCurve("dns", power.NSDServer.Power, emuPower, 1000),
	}
}

func fig5() *Table {
	t := &Table{
		ID:    "fig5",
		Title: "Figure 5: power with in-network computing on demand",
		Columns: []string{"kpps", "KVS-sw[W]", "KVS-ondemand[W]", "Paxos-sw[W]",
			"Paxos-ondemand[W]", "DNS-sw[W]", "DNS-ondemand[W]"},
	}
	d := DemandCurves()
	kvs, paxos, dns := d["kvs"], d["paxos"], d["dns"]
	for kpps := 0.0; kpps <= 1200; kpps += 50 {
		t.AddRow(kpps,
			kvs.SW(kpps), kvs.Power(kpps),
			paxos.SW(kpps), paxos.Power(kpps),
			dns.SW(kpps), dns.Power(kpps))
	}
	for _, c := range []core.DemandCurve{kvs, paxos, dns} {
		frac, at := c.MaxSaving(1200, 240)
		t.AddNote("%s: shift at %.0f kpps, max saving %.0f%% at %.0f kpps", c.Name, c.CrossKpps, frac*100, at)
	}
	t.AddNote("paper: on-demand 'saves up to 50%% of the power compared with software-based solutions'")
	return t
}
