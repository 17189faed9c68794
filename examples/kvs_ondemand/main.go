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
	"incod/internal/kvs"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

func main() {
	sim := simnet.New(7)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewKVS(net, "lake", simhost.LaKe()) // day starts in software
	client := kvs.NewClient(net, "client", "lake")

	etc := trafficgen.NewETC(sim.Rand(), 2000)
	lake.Preload(2000, 64)
	client.KeyFunc = etc.Keys.Next

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
	ctl := core.NewHostController(sim, svc,
		func() float64 { return lake.HostWatts() + bgPower() },
		func() float64 {
			u := lake.HostUtilization()
			if bgOn {
				u += 0.8
			}
			return u
		},
		lake.RateKpps,
		core.HostControllerConfig{
			ToNetworkPowerWatts: 70, ToNetworkCPUUtil: 0.5,
			ToNetworkSustain: 3 * time.Second,
			// Rate-based return disabled (0 never fires): the §9.2
			// experiment shifts back "as ChainerMN stops", below.
			ToHostKpps: 0, ToHostSustain: 3 * time.Second,
			SamplePeriod: 100 * time.Millisecond,
		})
	ctl.Start()
	// Shift back once the background job has been gone for 3s.
	var quietSince simnet.Time
	sim.Every(100*time.Millisecond, func() {
		if svc.Placement() == core.Network && !bgOn {
			if quietSince == 0 {
				quietSince = sim.Now()
			} else if sim.Now().Sub(quietSince) >= 3*time.Second {
				if err := svc.Shift(core.Host); err == nil {
					ctl.Transitions = append(ctl.Transitions, core.Transition{
						At: sim.Now(), To: core.Host, Reason: "background workload stopped"})
				}
				quietSince = 0
			}
		} else {
			quietSince = 0
		}
	})

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
	for _, tr := range ctl.Transitions {
		fmt.Printf("  %s\n", tr)
	}
	fmt.Printf("RAPL reads by controller: %d\n", ctl.RAPLReads())
}
