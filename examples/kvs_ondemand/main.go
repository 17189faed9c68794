// kvs_ondemand reproduces the Figure 6 scenario interactively: an ETC
// memcached workload served in software, a background job (ChainerMN)
// heating up the host, and the §9.1 host controller shifting the KVS onto
// the LaKe card — then back when the background job ends.
//
// Run: go run ./examples/kvs_ondemand
package main

import (
	"fmt"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

func main() {
	sim := simnet.New(7)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewKVS(net, "lake", simhost.LaKe()) // day starts in software
	etc := trafficgen.NewETC(sim.Rand(), 2000)
	lake.Preload(2000, 64)
	client := simhost.NewClient(net, "client", "lake", &trafficgen.KVS{Key: etc.Keys.Next})

	// Background training job between t=4s and t=14s.
	bgOn := false
	sim.Schedule(4*time.Second, func() { bgOn = true })
	sim.Schedule(14*time.Second, func() { bgOn = false })
	bgPower := func() float64 {
		if bgOn {
			return 45
		}
		return 0
	}

	svc := lake.Service
	// The host-controlled policy, returning not on a rate threshold but
	// once the background job has been gone for 3s (§9.2: the experiment
	// shifts back "as ChainerMN stops") — run by the orchestrator the
	// daemons run, on the simulator's clock.
	pol := core.ReturnWhen(core.NewPowerPolicy(core.HostControllerConfig{
		ToNetworkPowerWatts: 70, ToNetworkCPUUtil: 0.5,
		ToNetworkSustain: 3 * time.Second,
	}), func() bool { return !bgOn }, 3*time.Second, "background workload stopped")
	orch, _ := simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
		Service: svc,
		Policy:  pol,
		Model: func(float64) (watts, cpu float64) {
			u := lake.HostUtilization()
			if bgOn {
				u += 0.8
			}
			return lake.HostWatts() + bgPower(), u
		},
	}, lake.Observed)

	combined := telemetry.SumPower{lake,
		telemetry.PowerSourceFunc(func(simnet.Time) float64 { return bgPower() })}

	client.Start(16)
	fmt.Println("t[s]  throughput[kpps]  p50-latency  power[W]  placement")
	var lastRecv uint64
	for t := 0; t < 20; t++ {
		sim.RunFor(time.Second)
		recv := client.Counters.Get("recv")
		med := client.Latency.Median()
		client.Latency.Reset()
		fmt.Printf("%4d  %16.1f  %11v  %8.1f  %s\n",
			t+1, float64(recv-lastRecv)/1000, med,
			combined.PowerWatts(sim.Now()), svc.Placement())
		lastRecv = recv
	}
	client.Stop()

	fmt.Println("\ncontroller transitions:")
	for _, tr := range orch.Transitions(svc.Name()) {
		fmt.Printf("  %s\n", tr)
	}
	status, _ := orch.Status(svc.Name())
	fmt.Printf("RAPL reads by controller: %d\n", status.PowerReads)
}
