// paxos_leadershift reproduces Figure 7: a Paxos deployment whose leader
// shifts from software to a P4xos hardware pipeline and back, with
// closed-loop clients. Watch the ~100ms stall (the client timeout), the
// throughput increase and the latency halving.
//
// Run: go run ./examples/paxos_leadershift
package main

import (
	"fmt"
	"log"
	"time"

	"incod/internal/core"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

func main() {
	sim := simnet.New(99)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	dep := simhost.NewPaxos(net, simhost.PaxosConfig{Clients: 4})
	for _, c := range dep.Clients {
		c.RetryTimeout = 100 * time.Millisecond
	}

	// Drive the shift through the Service abstraction (the deployment
	// is a core.Service): the leader election is the §9.2 transition task.
	shift := func(to core.Placement) func() {
		return func() {
			cost := dep.TransitionCost(to)
			if err := core.Service(dep).Shift(to); err != nil {
				log.Printf("shift to %s failed: %v", to, err)
				return
			}
			fmt.Printf("# shift to %s (%s)\n", to, cost.Note)
		}
	}
	sim.Schedule(1500*time.Millisecond, shift(core.Network))
	sim.Schedule(3500*time.Millisecond, shift(core.Host))

	for _, c := range dep.Clients {
		c.StartClosedLoop(1)
	}

	fmt.Println("t[ms]  throughput[kpps]  p50-latency  leader")
	var last uint64
	for t := 0; t < 50; t++ {
		sim.RunFor(100 * time.Millisecond)
		decided := dep.Learner.StatsCounters().Get("decided")
		med := dep.Clients[0].Latency.Median()
		dep.Clients[0].Latency.Reset()
		leader := "software"
		if dep.CurrentLeader() == dep.HWLeader {
			leader = "hardware"
		}
		// kpps over the 100 ms interval.
		fmt.Printf("%5d  %16.1f  %11v  %s\n",
			(t+1)*100, float64(decided-last)/100, med, leader)
		last = decided
	}
	for _, c := range dep.Clients {
		c.Stop()
	}
	sim.RunFor(time.Second)
	fmt.Printf("\ndecided instances: %d, remaining gaps: %d, no-op fills: %d\n",
		dep.Learner.DecidedCount(), len(dep.Learner.Gaps()), dep.Learner.StatsCounters().Get("noop"))
}
