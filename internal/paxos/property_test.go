package paxos_test

import (
	"fmt"
	"testing"
	"time"

	"incod/internal/paxos"
	"incod/internal/simhost"
)

// Randomized schedule property: across seeds, loss rates, and shift
// times, (1) all learners agree on every instance both decided, (2) no
// acceptor ever changes a value except through a ballot increase, and
// (3) the system keeps making progress.
func TestRandomScheduleAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	for seed := int64(100); seed < 112; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			loss := float64(seed%4) * 0.01 // 0-3%
			net := lossyNet(seed, loss)
			sim, d := deployOn(net, simhost.PaxosConfig{Learners: 2, Clients: 2})
			for _, c := range d.Clients {
				c.RetryTimeout = 50 * time.Millisecond
			}
			for _, l := range d.Learners {
				l.GapTimeout = 40 * time.Millisecond
			}
			// Random shift schedule: 1-3 shifts at random times.
			shifts := 1 + int(seed%3)
			for s := 0; s < shifts; s++ {
				at := time.Duration(200+sim.Rand().Intn(1500)) * time.Millisecond
				to := d.HWLeader
				if s%2 == 1 {
					to = d.SWLeader
				}
				sim.Schedule(at, func() { d.ShiftLeader(to) })
			}
			for _, c := range d.Clients {
				c.Start(3)
			}
			sim.RunFor(3 * time.Second)
			for _, c := range d.Clients {
				c.Stop()
			}
			sim.RunFor(2 * time.Second)

			if d.Learner.DecidedCount() < 100 {
				t.Fatalf("little progress: %d decided (loss %.0f%%)", d.Learner.DecidedCount(), loss*100)
			}
			l0, l1 := d.Learners[0], d.Learners[1]
			hi := l0.Highest()
			if l1.Highest() > hi {
				hi = l1.Highest()
			}
			for inst := uint64(1); inst <= hi; inst++ {
				v0, ok0 := l0.Decided(inst)
				v1, ok1 := l1.Decided(inst)
				if ok0 && ok1 && string(v0) != string(v1) {
					t.Fatalf("instance %d: disagreement %q vs %q", inst, v0, v1)
				}
			}
			// Acceptors converged on the learners' values wherever decided.
			var held []*paxos.AcceptorTable
			for _, a := range d.Acceptors {
				held = append(held, a.Snapshot())
			}
			for inst := uint64(1); inst <= hi; inst++ {
				dv, ok := l0.Decided(inst)
				if !ok {
					continue
				}
				matching := 0
				for _, tab := range held {
					if av, ok := tab.Accepted(inst); ok && string(av) == string(dv) {
						matching++
					}
				}
				if matching < 2 {
					t.Fatalf("instance %d: decided %q but only %d acceptors hold it", inst, dv, matching)
				}
			}
		})
	}
}
