package paxos_test

import (
	"testing"
	"time"

	. "incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// Divergent instance: one acceptor voted X at ballot 1, the other two
// voted Y at ballot 2 minus one — i.e. no quorum agrees on a ballot. The
// leader's escalated Phase1/Phase2 recovery must converge all learners on
// the highest-ballot value.
func TestRecoveryResolvesDivergentInstance(t *testing.T) {
	sim, d := deploy(t, 61, simhost.PaxosConfig{Learners: 2})
	d.Learner.GapTimeout = 20 * time.Millisecond
	lead := d.CurrentLeader()
	// The second learner is the fresh one: cut off from the acceptors
	// while the divergent votes go out, it never sees them.
	fresh := d.Learners[1]
	fresh.GapTimeout = 20 * time.Millisecond
	cut := map[[2]simnet.Addr]simnet.Faults{}
	for _, a := range d.Acceptors {
		cut[[2]simnet.Addr{a.Addr(), fresh.Addr()}] = simnet.Faults{LossRate: 1}
		cut[[2]simnet.Addr{fresh.Addr(), a.Addr()}] = simnet.Faults{LossRate: 1}
	}
	d.Net.SetFaultPlan(simnet.FaultPlan{Links: cut})

	// Hand-craft divergence at instance 1: acceptor 0 accepted "X"@1;
	// acceptors 1-2 accepted "Y"@2. (As would happen if a shifted leader
	// raced the old one.)
	inject(d.Acceptors[0], "ghost-1", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 1, Value: []byte("X")})
	inject(d.Acceptors[1], "ghost-2", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 2, Value: []byte("Y")})
	inject(d.Acceptors[2], "ghost-2", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 2, Value: []byte("Y")})
	// Drain the 2B fan-out: the first learner sees 1x vb1 + 2x vb2 and
	// decides "Y" at quorum. The stuck case is the learner whose votes
	// got lost.
	sim.RunFor(10 * time.Millisecond)
	d.Net.SetFaultPlan(simnet.FaultPlan{})

	// Now push the frontier so instance 1 becomes a gap for the fresh
	// learner that never saw those votes.
	inject(lead, "acceptor-0", Msg{Type: MsgPhase2B, LastVoted: 1})
	d.Clients[0].Submit([]byte("frontier"))
	sim.RunFor(10 * time.Millisecond)
	if _, ok := fresh.Decided(2); !ok {
		t.Fatal("frontier instance not decided")
	}
	// The fresh learner sees a gap at 1; re-announces alone may not
	// conflict here (vb2 has quorum), but the recovery path must in any
	// case converge it.
	sim.RunFor(300 * time.Millisecond)
	v, ok := fresh.Decided(1)
	if !ok {
		t.Fatalf("gap never recovered; learner counters: %v", fresh.StatsCounters())
	}
	if string(v) != "Y" {
		t.Errorf("recovered %q, want the highest-ballot value Y", v)
	}
}

// The truly stuck case: votes split 1-1-1 across three ballots, so no
// quorum shares a ballot and re-announces can never decide. Only the
// Phase1 escalation converges it.
func TestRecoveryResolvesThreeWaySplit(t *testing.T) {
	sim, d := deploy(t, 62, simhost.PaxosConfig{})
	d.Learner.GapTimeout = 20 * time.Millisecond
	lead := d.CurrentLeader()

	inject(d.Acceptors[0], "g1", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 1, Value: []byte("A")})
	inject(d.Acceptors[1], "g2", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 2, Value: []byte("B")})
	inject(d.Acceptors[2], "g3", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 3, Value: []byte("C")})
	sim.RunFor(10 * time.Millisecond)
	if _, ok := d.Learner.Decided(1); ok {
		t.Fatal("three-way split should not decide by itself")
	}

	// Advance the frontier so the learner flags the gap.
	inject(lead, "acceptor-0", Msg{Type: MsgPhase2B, LastVoted: 1})
	d.Clients[0].Submit([]byte("frontier"))
	sim.RunFor(500 * time.Millisecond)

	v, ok := d.Learner.Decided(1)
	if !ok {
		t.Fatalf("split instance never recovered (learner: %v, leader: %v)", d.Learner.StatsCounters(), lead.StatsCounters())
	}
	// The recovery must adopt the highest-ballot value seen in its
	// promise quorum — any of A/B/C is safe (none was chosen), but the
	// result must now be uniform across acceptors.
	if lead.StatsCounters().Get("recoveries") == 0 {
		t.Error("recovery escalation never triggered")
	}
	uniform := 0
	for _, a := range d.Acceptors {
		if av, ok := a.Snapshot().Accepted(1); ok && string(av) == string(v) {
			uniform++
		}
	}
	if uniform < 2 {
		t.Errorf("only %d acceptors converged on %q", uniform, v)
	}
}

// A chosen (quorum-decided) value must survive recovery attempts: the
// Phase1 exchange adopts it rather than the no-op.
func TestRecoveryNeverDisplacesChosenValue(t *testing.T) {
	sim, d := deploy(t, 63, simhost.PaxosConfig{})
	d.Learner.GapTimeout = 20 * time.Millisecond
	c := d.Clients[0]
	c.Submit([]byte("chosen"))
	sim.RunFor(10 * time.Millisecond)
	if v, _ := d.Learner.Decided(1); string(v) != "chosen" {
		t.Fatal("setup: instance 1 not decided")
	}
	lead := d.CurrentLeader()
	// Force repeated recovery of the already-decided instance.
	for i := 0; i < 3; i++ {
		inject(lead, "learner", Msg{Type: MsgGapRequest, Instance: 1})
		sim.RunFor(50 * time.Millisecond)
	}
	for i, a := range d.Acceptors {
		if v, _ := a.Snapshot().Accepted(1); string(v) != "chosen" {
			t.Errorf("acceptor %d now holds %q, chosen value displaced", i, v)
		}
	}
}
