package experiments

import (
	"time"

	"incod/internal/core"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/placement"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

func init() {
	register("latency", "Software vs hardware latency across applications (§9.5)", latencyTable)
	register("place", "FPGA, SmartNIC or Switch? platform guide (§10)", placeTable)
}

// cyclingKeys is GET traffic cycling over n preloaded keys.
func cyclingKeys(n int) *trafficgen.KVS {
	i := 0
	return &trafficgen.KVS{Key: func() string { i++; return kvs.SequentialKey(i % n) }}
}

// mustShift moves svc to a placement; on the simulated stacks, which
// nothing crashes, a shift cannot fail.
func mustShift(svc core.Service, to core.Placement) {
	if err := svc.Shift(to); err != nil {
		panic(err)
	}
}

// latencyTable measures end-to-end p50/p99 for each application in both
// placements, from live simulations — the §9.5 discussion quantified.
func latencyTable() *Table {
	t := &Table{
		ID:      "latency",
		Title:   "§9.5: end-to-end latency, software vs in-network",
		Columns: []string{"application", "placement", "p50", "p99"},
	}

	// phases measures a client's end-to-end latency at 100 kpps with svc
	// on the card, then on the host.
	phases := func(app string, sim *simnet.Simulator, svc core.Service, client *simhost.Client) {
		for _, where := range []core.Placement{core.Network, core.Host} {
			mustShift(svc, where)
			client.Latency.Reset()
			client.Start(100)
			sim.RunFor(300 * time.Millisecond)
			client.Stop()
			sim.RunFor(10 * time.Millisecond)
			t.AddRow(app, where.String(), client.Latency.Median(), client.Latency.P99())
		}
	}

	// KVS.
	{
		sim := simnet.New(951)
		net := simnet.NewNetwork(sim, simnet.TenGigE)
		lake := simhost.NewKVS(net, "lake", simhost.LaKe())
		lake.Preload(100, 64)
		client := simhost.NewClient(net, "client", "lake", cyclingKeys(100))
		phases("kvs", sim, lake.Service, client)
	}

	// DNS.
	{
		sim := simnet.New(952)
		net := simnet.NewNetwork(sim, simnet.TenGigE)
		zone := dns.NewZone()
		zone.PopulateSequential(100)
		emu := simhost.NewDNS(net, "emu", zone, simhost.EmuDNS())
		i := 0
		client := simhost.NewClient(net, "client", "emu",
			&trafficgen.DNS{Name: func() string { i++; return dns.SequentialName(i % 100) }})
		phases("dns", sim, emu.Service, client)
	}

	// Paxos (leader placement).
	{
		sim := simnet.New(953)
		net := simnet.NewNetwork(sim, simnet.TenGigE)
		dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 1})
		c := dep.Clients[0]
		c.Start(5)
		sim.RunFor(time.Second)
		t.AddRow("paxos", "host", c.Latency.Median(), c.Latency.P99())
		dep.ShiftLeader(dep.HWLeader)
		sim.RunFor(500 * time.Millisecond)
		c.Latency.Reset()
		sim.RunFor(time.Second)
		c.Stop()
		t.AddRow("paxos", "network", c.Latency.Median(), c.Latency.P99())
	}

	t.AddNote("§9.5: 'where latency is the target, there is no need for in-network computing on demand, as in-network computing will provide lower latency'")
	t.AddNote("fully pipelined on-chip designs have near-constant latency; external memories add hundreds of ns but still beat the PCIe trip to the host")
	return t
}

func placeTable() *Table {
	t := &Table{
		ID:      "place",
		Title:   "§10: FPGA, SmartNIC or Switch?",
		Columns: []string{"platform", "peak[Mpps]", "watts", "Mpps/W", "price[xNIC]", "flex", "ease", "ext-mem", "blast"},
	}
	for _, p := range placement.Catalog() {
		t.AddRow(p.Name, p.PeakMpps, p.Watts, p.PerfPerWatt(), p.PriceUnits,
			p.Flexibility, p.ProgrammingEase, p.ExternalMemory, p.BlastRadius)
	}
	// Example rankings for the three case studies.
	apps := []struct {
		name string
		req  placement.Requirements
	}{
		{"kvs (large state)", placement.Requirements{MinMpps: 10, NeedExternalMemory: true, MinFlexibility: 8}},
		{"paxos (wire-speed coordination)", placement.Requirements{MinMpps: 100}},
		{"dns (small table, modest rate)", placement.Requirements{MinMpps: 1, MaxPriceUnits: 2}},
	}
	for _, app := range apps {
		ranked := placement.Rank(app.req)
		best := "none"
		if ranked[0].Feasible {
			best = ranked[0].Platform.Name
		}
		t.AddNote("%s -> %s", app.name, best)
	}
	t.AddNote("§10: 'the answer is not conclusive' — the guide applies the paper's hard constraints, then ranks by perf/W per price")
	return t
}
