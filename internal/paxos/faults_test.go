package paxos_test

import (
	"fmt"
	"testing"
	"time"

	"incod/internal/simhost"
	"incod/internal/simnet"
)

// lossyNet returns a 10GE network that loses the given fraction of every
// link's packets.
func lossyNet(seed int64, loss float64) *simnet.Network {
	net := simnet.NewNetwork(simnet.New(seed), simnet.TenGigE)
	net.SetFaultPlan(simnet.FaultPlan{Default: simnet.Faults{LossRate: loss}})
	return net
}

// Failure injection: with 5% random packet loss, client retries keep the
// system live and learners still agree on everything decided.
func TestConsensusUnderPacketLoss(t *testing.T) {
	net := lossyNet(71, 0.05)
	lost := 0
	net.SetTracer(func(kind string, _ simnet.Time, _, _ simnet.Addr, _ []byte) {
		if kind == simnet.TraceDropLoss {
			lost++
		}
	})
	sim, d := deployOn(net, simhost.PaxosConfig{Learners: 2})
	c := d.Clients[0]
	c.RetryTimeout = 50 * time.Millisecond
	d.Learner.GapTimeout = 50 * time.Millisecond
	d.Learners[1].GapTimeout = 50 * time.Millisecond

	for i := 0; i < 200; i++ {
		c.Submit([]byte(fmt.Sprintf("v%d", i)))
	}
	sim.RunFor(5 * time.Second)

	if lost == 0 {
		t.Fatal("loss injection inactive")
	}
	// Liveness: the overwhelming majority of requests decide.
	decided := c.Counters.Get("decided")
	if decided < 190 {
		t.Errorf("client decided %d of 200 under 5%% loss", decided)
	}
	if c.Counters.Get("retries") == 0 {
		t.Error("loss should force retries")
	}
	// Safety: both learners agree wherever both decided.
	l0, l1 := d.Learners[0], d.Learners[1]
	for inst := uint64(1); inst <= l0.Highest(); inst++ {
		v0, ok0 := l0.Decided(inst)
		v1, ok1 := l1.Decided(inst)
		if ok0 && ok1 && string(v0) != string(v1) {
			t.Fatalf("instance %d: learners disagree (%q vs %q)", inst, v0, v1)
		}
	}
}

// A leader shift while packets are being lost must still converge.
func TestLeaderShiftUnderPacketLoss(t *testing.T) {
	net := lossyNet(72, 0.03)
	sim, d := deployOn(net, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.RetryTimeout = 50 * time.Millisecond
	d.Learner.GapTimeout = 50 * time.Millisecond
	c.Start(5)
	sim.RunFor(500 * time.Millisecond)
	d.ShiftLeader(d.HWLeader)
	sim.RunFor(3 * time.Second)
	c.Stop()
	sim.RunFor(2 * time.Second)

	if d.Learner.DecidedCount() == 0 {
		t.Fatal("nothing decided")
	}
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("unrecovered gaps under loss: %v", gaps)
	}
}

func TestMultipleLearnersDeployment(t *testing.T) {
	sim, d := deploy(t, 73, simhost.PaxosConfig{Learners: 3})
	if len(d.Learners) != 3 || d.Learner != d.Learners[0] {
		t.Fatalf("learners = %d", len(d.Learners))
	}
	for i := 0; i < 30; i++ {
		d.Clients[0].Submit([]byte(fmt.Sprintf("v%d", i)))
	}
	sim.RunFor(100 * time.Millisecond)
	for i, l := range d.Learners {
		if l.DecidedCount() != 30 {
			t.Errorf("learner %d decided %d, want 30", i, l.DecidedCount())
		}
	}
}
