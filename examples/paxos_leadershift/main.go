// paxos_leadershift reproduces Figure 7: a Paxos deployment whose leader
// shifts from software to a P4xos hardware pipeline and back, with
// closed-loop clients. Watch the ~100ms stall (the client timeout), the
// throughput increase and the latency halving. It is the figure's own run
// (internal/experiments) at another seed.
//
// Run: go run ./examples/paxos_leadershift
package main

import (
	"fmt"

	"incod/internal/experiments"
)

func main() {
	res := experiments.RunFig7(experiments.Fig7Params{Seed: 99})
	fmt.Println(res.Table.Render())
}
