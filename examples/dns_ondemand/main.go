// dns_ondemand runs the DNS case study under the network-controlled
// on-demand policy: a query ramp crosses the software/hardware power
// crossover, the classifier's controller shifts resolution into the Emu
// DNS pipeline (syncing the on-chip zone), and shifts back as load fades.
//
// Run: go run ./examples/dns_ondemand
package main

import (
	"fmt"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

func main() {
	sim := simnet.New(5)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	zone := dns.NewZone()
	zone.PopulateSequential(1000)
	emu := simhost.NewDNS(net, "emu", zone, simhost.EmuDNS()) // starts in software
	keys := trafficgen.NewZipfKeys(sim.Rand(), 1000, 1.1)
	client := simhost.NewClient(net, "client", "emu",
		&trafficgen.DNS{Name: func() string { return dns.SequentialName(int(keys.NextIndex())) }})

	svc := emu.Service
	orch, _ := simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
		Service: svc,
		Policy:  core.NewThresholdPolicy(core.DefaultNetworkConfig(150)),
	}, emu.Observed)

	// Ramp up 20 -> 400 kpps, hold, ramp down.
	client.Run(trafficgen.Profile{
		trafficgen.Hold(20e3, 3*time.Second),
		trafficgen.Hold(400e3, 5*time.Second),
		trafficgen.Hold(20e3, 6*time.Second),
	})

	fmt.Println("t[s]  rate[kpps]  p50-latency  power[W]  placement")
	var last uint64
	for t := 0; t < 14; t++ {
		sim.RunFor(time.Second)
		recv := client.Counters.Get("recv")
		med := client.Latency.Median()
		client.Latency.Reset()
		fmt.Printf("%4d  %10.1f  %11v  %8.1f  %s\n",
			t+1, float64(recv-last)/1000, med, emu.PowerWatts(sim.Now()), svc.Placement())
		last = recv
	}
	client.Stop()
	fmt.Println("\ncontroller transitions:")
	for _, tr := range orch.Transitions(svc.Name()) {
		fmt.Printf("  %s\n", tr)
	}
}
