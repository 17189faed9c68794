package experiments

import (
	"time"

	"incod/internal/core"
	"incod/internal/fpga"
	"incod/internal/power"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

func init() {
	register("xeon", "Xeon-class server power under load (§7)", xeonTable)
	register("memories", "Memory trade-offs: capacity, latency, power (§5.3)", memoriesTable)
	register("crossover", "Software/hardware crossover points (§4/§8)", crossoverTable)
}

func xeonTable() *Table {
	m := power.XeonE52660v4Dual
	t := &Table{
		ID:      "xeon",
		Title:   "§7: dual Xeon E5-2660 v4 power (synthetic workload, RAPL)",
		Columns: []string{"active-cores", "per-core-util[%]", "watts", "socket0[W]", "socket1[W]"},
	}
	add := func(cores int, util float64) {
		s := m.SocketPower(cores, util)
		t.AddRow(cores, util*100, m.Power(cores, util), s[0], s[1])
	}
	add(0, 0)
	add(1, 0.10)
	add(1, 1)
	for _, c := range []int{2, 4, 8, 14, 20, 28} {
		add(c, 1)
	}
	t.AddNote("anchors: 56 W idle, 91 W one core, 134 W full load, 86 W at 10%% single-core load (§7)")
	t.AddNote("extra core overhead: %.1f W (paper: 1-2 W)", m.Power(2, 1)-m.Power(1, 1))
	t.AddNote("both sockets rise when one core runs (paper: 'almost equally')")
	return t
}

// memoriesTable measures the §5.3 latency classes from a live simulation
// of the LaKe data path and reports the capacity/power trade-off.
func memoriesTable() *Table {
	t := &Table{
		ID:      "memories",
		Title:   "§5.3: on-chip vs off-chip vs software",
		Columns: []string{"path", "capacity[entries]", "power[W]", "p50-latency", "p99-latency"},
	}
	// drive cycles a client over n preloaded keys, all of them on the
	// lit card, for d at kpps.
	drive := func(seed int64, n int, kpps float64, d time.Duration) (*simnet.Simulator, *simhost.KVS, *trafficgen.KVS, *simhost.Client) {
		sim := simnet.New(seed)
		net := simnet.NewNetwork(sim, simnet.TenGigE)
		lake := simhost.NewKVS(net, "lake", simhost.LaKe())
		lake.Preload(n, 64)
		mustShift(lake.Service, core.Network)
		app := cyclingKeys(n)
		client := simhost.NewClient(net, "client", "lake", app)
		client.Start(kpps)
		sim.RunFor(d)
		client.Stop()
		sim.RunFor(10 * time.Millisecond)
		return sim, lake, app, client
	}

	// Small hot set: every hit after a key's first comes from on-chip.
	sim, lake, app, client := drive(53, 100, 100, 500*time.Millisecond)
	l1p50, l1p99 := lake.CardLatency.Median(), lake.CardLatency.P99()
	// The miss path: keys the card does not hold go to the host software
	// and come back across PCIe.
	app.Key = func() string { return "absent" }
	client.Start(100)
	sim.RunFor(100 * time.Millisecond)
	client.Stop()
	sim.RunFor(10 * time.Millisecond)
	missP50, missP99 := lake.HostLatency.Median(), lake.HostLatency.P99()

	// Off-chip: a key set x20 the on-chip layer, cycled, defeats it.
	_, lake2, _, _ := drive(54, fpga.OnChipValueEntries*20, 200, 800*time.Millisecond)
	l2p50, l2p99 := lake2.CardLatency.Median(), lake2.CardLatency.P99()

	t.AddRow("L1 on-chip (BRAM)", fpga.OnChipValueEntries, 0.0, l1p50, l1p99)
	t.AddRow("L2 off-chip (DRAM+SRAM)", fpga.DRAMValueEntries, fpga.DRAMWatts+fpga.SRAMWatts, l2p50, l2p99)
	t.AddRow("software (miss path)", "unbounded", "server", missP50, missP99)
	t.AddNote("paper: on-chip hit <=1.4us; DRAM hit 1.67us p50 / 1.9us p99; miss ~x10 (13.5us p50, 14.3us p99)")
	t.AddNote("DRAM holds x%d the on-chip entries; SRAM x%d the on-chip free chunks (§5.3)",
		fpga.DRAMValueEntries/fpga.OnChipValueEntries, fpga.SRAMFreeChunks/fpga.OnChipFreeChunks)
	t.AddNote("miss/hit p50 ratio: %.1fx (paper: x10)", float64(missP50)/float64(l1p50))
	return t
}

func crossoverTable() *Table {
	t := &Table{
		ID:      "crossover",
		Title:   "§4/§8: software->hardware power crossover points",
		Columns: []string{"application", "crossover[kpps]", "paper"},
	}
	rows := []struct {
		name  string
		cross float64
		paper string
	}{
		{"KVS (memcached/Mellanox vs LaKe)", power.Crossover(power.MemcachedMellanox.Power, lakePower, 2000), "~80 kpps"},
		{"KVS (memcached/Intel X520 vs LaKe)", power.Crossover(power.MemcachedIntelX520.Power, lakePower, 2000), ">300 kpps"},
		{"Paxos leader (libpaxos vs P4xos)", power.Crossover(power.LibpaxosLeader.Power, p4xosPower, 1000), "~150 kpps"},
		{"Paxos acceptor (libpaxos vs P4xos)", power.Crossover(power.LibpaxosAcceptor.Power, p4xosPower, 1000), "~150 kpps"},
		{"Paxos leader (DPDK vs P4xos)", power.Crossover(power.DPDKLeader.Power, p4xosPower, 1000), "0 (DPDK always hotter)"},
		{"DNS (NSD vs Emu)", power.Crossover(power.NSDServer.Power, emuPower, 1000), "<200 kpps"},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.cross, r.paper)
	}
	t.AddNote("§8: the tipping point is where Pd_N(R) = Pd_S(R); idle/sleep power cancels for a shared device")
	return t
}
