// Quickstart: build the smallest complete in-network-computing-on-demand
// system — a memcached client and a simulated LaKe card-and-host serving
// through the daemons' own handler and offload tier — drive some load in
// virtual time, and print the power and latency numbers that motivate the
// paper.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"incod/internal/core"
	"incod/internal/kvs"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/telemetry"
	"incod/internal/trafficgen"
)

func main() {
	sim := simnet.New(42)
	net := simnet.NewNetwork(sim, simnet.TenGigE)

	// Host software (memcached-style) behind a LaKe FPGA NIC, with a
	// small working set already shifted onto the card.
	lake := simhost.NewStack(net, "lake", protocol.KVS, protocol.Options{}, simhost.LaKe())
	lake.Preload(100, 5)
	if err := lake.Service.Shift(core.Network); err != nil {
		panic(err)
	}
	i := 0
	app := &trafficgen.KVS{Key: func() string { i++; return kvs.SequentialKey(i % 100) }}
	client := simhost.NewClient(net, "client", "lake", app)

	// Measure combined wall power like the paper's SHW-3A meter.
	meter := telemetry.NewPowerMeter(sim, lake, 10*time.Millisecond)

	fmt.Println("driving 200 kpps of memcached GETs through LaKe for 2s of virtual time...")
	client.Start(200)
	sim.RunFor(2 * time.Second)
	client.Stop()
	sim.RunFor(10 * time.Millisecond)
	hitP50, hitP99 := lake.CardLatency.Median(), lake.CardLatency.P99()
	// A key the card does not hold takes the software path.
	app.Key = func() string { return "absent" }
	client.Start(10)
	sim.RunFor(10 * time.Millisecond)
	client.Stop()
	sim.RunFor(10 * time.Millisecond)

	fmt.Printf("  queries answered:    %d (hit ratio %.1f%%)\n",
		client.Counters.Get("recv"), lake.Tier.HitRatio()*100)
	fmt.Printf("  hit latency:         p50=%v p99=%v (software path: p50=%v)\n",
		hitP50, hitP99, lake.HostLatency.Median())
	fmt.Printf("  combined wall power: %.1f W average\n", meter.AverageWatts())
	fmt.Printf("  pure software would: %.1f W at this rate\n", power.MemcachedMellanox.Power(200))
	fmt.Printf("  crossover:           hardware wins above ~%.0f kpps (paper: ~80)\n",
		power.Crossover(power.MemcachedMellanox.Power,
			func(float64) float64 { return lake.PowerWatts(sim.Now()) }, 2000))
}
