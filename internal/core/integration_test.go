package core_test

import (
	"fmt"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// The controllers of this package over the real services: the simulated
// card-and-host serves through the daemons' handlers and offload tiers,
// and a shift is nictier.Service's stage, flip, barrier, warm / drain,
// park.

// Figure 6 flow: host-controlled shift of the KVS from software to
// hardware under sustained load, with no throughput dip and a ~10x hit
// latency improvement.
func TestKVSOnDemandTransition(t *testing.T) {
	sim := simnet.New(21)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewKVS(net, "lake", simhost.LaKe()) // the "start of the day" state: software
	lake.Preload(200, 1)
	client := kvs.NewClient(net, "client", "lake")
	i := 0
	client.KeyFunc = func() string { i++; return fmt.Sprintf("key-%d", i%200) }

	svc := lake.Service
	if svc.Placement() != core.Host {
		t.Fatal("service should start on the host")
	}
	// Host controller: CPU util and power come from the host model.
	ctl := core.NewHostController(sim, svc, lake.HostWatts, lake.HostUtilization, lake.RateKpps,
		core.HostControllerConfig{
			ToNetworkPowerWatts: 45, ToNetworkCPUUtil: 0.05,
			ToNetworkSustain: 1 * time.Second,
			ToHostKpps:       1, ToHostSustain: 2 * time.Second,
			SamplePeriod: 100 * time.Millisecond,
		})
	ctl.Start()

	client.Start(100) // 100 kpps, above the KVS crossover
	sim.RunFor(5 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("controller did not offload (transitions: %v)", ctl.Transitions)
	}
	// §9.2: "the transition from software to hardware had no effect on
	// KVS throughput" — every request answered.
	client.Stop()
	sim.RunFor(100 * time.Millisecond)
	sent, recv := client.Counters.Get("sent"), client.Counters.Get("recv")
	if recv < sent*99/100 {
		t.Errorf("recv %d of %d; transition should not drop traffic", recv, sent)
	}
	// The warm-up moved the table: hits come from the card, in the
	// ~1.4-1.7µs hardware class.
	if lake.Tier.HitRatio() < 0.5 {
		t.Errorf("hit ratio = %v, tier did not warm", lake.Tier.HitRatio())
	}
	if med := lake.CardLatency.Median(); med > 2*time.Microsecond {
		t.Errorf("hardware hit median = %v, want <2µs (10x better than software)", med)
	}
}

// The network-controlled variant of the same shift.
func TestKVSNetworkControlled(t *testing.T) {
	sim := simnet.New(22)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewKVS(net, "lake", simhost.LaKe())
	lake.Store.Set("k", kvs.Entry{Value: []byte("v")})
	client := kvs.NewClient(net, "client", "lake")
	client.KeyFunc = func() string { return "k" }

	svc := lake.Service
	ctl := core.NewNetworkController(sim, svc, lake.RateKpps, core.DefaultNetworkConfig(80))
	ctl.Start()

	client.Start(150)
	sim.RunFor(4 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("network controller did not offload; rate=%v", lake.RateKpps())
	}
	// Load drops: shift back.
	client.Start(5)
	sim.RunFor(6 * time.Second)
	client.Stop()
	if svc.Placement() != core.Host {
		t.Errorf("network controller did not shift back (transitions: %v)", ctl.Transitions)
	}
}

// DNS on demand with zone sync on activation.
func TestDNSOnDemand(t *testing.T) {
	sim := simnet.New(23)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	zone := dns.NewZone()
	zone.PopulateSequential(50)
	emu := simhost.NewDNS(net, "emu", zone, simhost.EmuDNS())
	client := dns.NewClient(net, "client", "emu")
	i := 0
	client.NameFunc = func() string { i++; return dns.SequentialName(i % 50) }

	// A record added while the hardware is parked: the sync-on-shift
	// must pick it up.
	zone.Add("late.example.com", [4]byte{10, 0, 0, 99}, 60)

	svc := emu.Service
	ctl := core.NewNetworkController(sim, svc, emu.RateKpps, core.DefaultNetworkConfig(150))
	ctl.Start()

	client.Start(300)
	sim.RunFor(4 * time.Second)
	client.Stop()
	if svc.Placement() != core.Network {
		t.Fatalf("DNS not offloaded; rate=%v", emu.RateKpps())
	}
	if got := emu.Tier.Counters().Get("synced_records"); got != 51 {
		t.Errorf("Shift(Network) synced %d records onto the card, want all 51", got)
	}
	_, hostBefore := emu.Served()
	client.Query("late.example.com")
	sim.RunFor(time.Millisecond)
	if _, host := emu.Served(); host != hostBefore {
		t.Error("the card must answer the late record itself")
	}
}

// Figure 7 flow: Paxos leader shift with throughput stall bounded by the
// client timeout.
func TestPaxosOnDemandLeaderShift(t *testing.T) {
	sim := simnet.New(24)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 1})
	c := dep.Clients[0]
	c.RetryTimeout = 100 * time.Millisecond
	var svc core.Service = dep
	if svc.Placement() != core.Host {
		t.Fatal("paxos starts in software")
	}

	ctl := core.NewNetworkController(sim, svc, func() float64 { return dep.CurrentLeader().RateKpps() },
		core.NetworkControllerConfig{
			ToNetworkKpps: 3, ToNetworkWindow: time.Second,
			ToHostKpps: 1, ToHostWindow: 2 * time.Second,
			SamplePeriod: 100 * time.Millisecond,
		})
	ctl.Start()

	c.Start(8)
	sim.RunFor(4 * time.Second)
	if svc.Placement() != core.Network {
		t.Fatalf("paxos leader not shifted; transitions: %v", ctl.Transitions)
	}
	sim.RunFor(2 * time.Second)
	c.Stop()
	sim.RunFor(time.Second)
	if dep.Learner.DecidedCount() == 0 {
		t.Fatal("no decisions")
	}
	if gaps := dep.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after on-demand shift: %v", gaps)
	}
	// Rate meter tracks the HW leader now: ctl sees the SW leader's rate
	// fall to zero... but the service moved, so the shift-back reads the
	// current leader via the closure and must stay in the network under
	// sustained load. (The closure reads CurrentLeader each tick.)
	if svc.Placement() == core.Host {
		t.Error("unexpected shift back while load persisted")
	}
}
