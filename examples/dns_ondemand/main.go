// dns_ondemand runs the DNS case study under the network-controlled
// on-demand policy: a query ramp crosses the software/hardware power
// crossover, the classifier's controller shifts resolution into the Emu
// DNS pipeline (syncing the on-chip zone), and shifts back as load fades.
// The stack is the DNS row's live handler and tier on internal/simhost,
// placed by the daemons' own orchestrator and threshold policy on the
// simulator's clock; the program prints one CSV row a second, the
// transition log and the energy the run took.
//
// Run: go run ./examples/dns_ondemand
package main

import (
	"fmt"
	"log"
	"time"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

const names = 1000 // the zone's size, Zipf popular

func main() {
	sim := simnet.New(5)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	st := simhost.NewStack(net, "server", protocol.DNS, protocol.Options{Names: names}, simhost.EmuDNS())
	keys := trafficgen.NewZipfKeys(sim.Rand(), names, 1.1)
	client := simhost.NewClient(net, "client", "server",
		&trafficgen.DNS{Name: func() string { return dns.SequentialName(int(keys.NextIndex())) }})
	pol, err := core.CalibratedPolicyByName("threshold", protocol.DNS.CrossKpps, protocol.DNS.Curve)
	if err != nil {
		log.Fatal(err)
	}
	orch, _ := simhost.Orchestrate(sim, 100*time.Millisecond, daemon.ServiceConfig{
		Service: st.Service, Policy: pol,
		Model: func(float64) (float64, float64) { return st.HostWatts(), st.HostUtilization() },
	}, st.Observed)

	// 20 -> 400 kpps, hold, back to 20.
	profile := trafficgen.Profile{
		trafficgen.Hold(20_000, 3*time.Second),
		trafficgen.Hold(400_000, 5*time.Second),
		trafficgen.Hold(20_000, 6*time.Second),
	}
	client.Run(profile)
	meter := telemetry.NewPowerMeter(sim, st.Node, 10*time.Millisecond)

	fmt.Println("t_ms,offered_kpps,served_kpps,p50_us,power_w,placement")
	const interval = time.Second
	var lastServed uint64
	var offered float64
	for t := time.Duration(0); t < profile.Total(); t += interval {
		sim.RunFor(interval)
		served := client.Counters.Get("recv")
		rate := profile.Rate(t)
		offered += rate * interval.Seconds()
		fmt.Printf("%.0f,%.3g,%.3g,%.3g,%.4g,%s\n", sim.Now().Seconds()*1000, rate/1000,
			float64(served-lastServed)/interval.Seconds()/1000,
			float64(client.Latency.Median())/1000, st.Node.PowerWatts(sim.Now()), st.Service.Placement())
		client.Latency.Reset()
		lastServed = served
	}
	client.Stop()
	sim.RunFor(200 * time.Millisecond)

	for _, tr := range orch.Transitions() {
		fmt.Printf("# transition: %s\n", tr)
	}
	fmt.Printf("# total %.4g kWh, served %.1f%% of offered\n", meter.KWh(), float64(client.Counters.Get("recv"))/offered*100)
}
