package paxos_test

// The protocol tests run the roles of this package as the simulated
// deployment of internal/simhost wires them (which is why they live in
// the external test package: simhost imports paxos).

import (
	"fmt"
	"testing"
	"time"

	. "incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// deploy builds a deployment (one client unless cfg says otherwise) on a
// fresh 10GE network.
func deploy(t *testing.T, seed int64, cfg simhost.PaxosConfig) (*simnet.Simulator, *simhost.Paxos) {
	t.Helper()
	return deployOn(simnet.NewNetwork(simnet.New(seed), simnet.TenGigE), cfg)
}

func deployOn(net *simnet.Network, cfg simhost.PaxosConfig) (*simnet.Simulator, *simhost.Paxos) {
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	return net.Sim(), simhost.NewPaxos(net, cfg)
}

// inject delivers a raw message to a node as if from src.
func inject(n simnet.Node, src simnet.Addr, m Msg) {
	n.Receive(&simnet.Packet{Src: src, Dst: n.Addr(), SrcPort: 9555, DstPort: 9555, Payload: Encode(m)})
}

func TestBasicConsensus(t *testing.T) {
	sim, d := deploy(t, 1, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Submit([]byte("value-1"))
	sim.RunFor(10 * time.Millisecond)

	if got := c.Counters.Get("decided"); got != 1 {
		t.Fatalf("client decided = %d, want 1 (counters: %v)", got, c.Counters)
	}
	v, ok := d.Learner.Decided(1)
	if !ok || string(v) != "value-1" {
		t.Errorf("learner decided(1) = %q, %v", v, ok)
	}
	// All three acceptors voted.
	for i, a := range d.Acceptors {
		if got := a.StatsCounters().Get("voted"); got != 1 {
			t.Errorf("acceptor %d voted %d times, want 1", i, got)
		}
		if a.Snapshot().LastVoted() != 1 {
			t.Errorf("acceptor %d LastVoted = %d, want 1", i, a.Snapshot().LastVoted())
		}
	}
}

func TestSequentialInstances(t *testing.T) {
	sim, d := deploy(t, 2, simhost.PaxosConfig{})
	c := d.Clients[0]
	for i := 0; i < 50; i++ {
		c.Submit([]byte(fmt.Sprintf("v%d", i)))
	}
	sim.RunFor(100 * time.Millisecond)
	if d.Learner.DecidedCount() != 50 {
		t.Fatalf("decided %d instances, want 50", d.Learner.DecidedCount())
	}
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps = %v, want none", gaps)
	}
	if d.CurrentLeader().Next() != 51 {
		t.Errorf("leader next = %d, want 51", d.CurrentLeader().Next())
	}
}

// Safety: all learners agree on every decided instance.
func TestAgreementAcrossLearners(t *testing.T) {
	sim, d := deploy(t, 3, simhost.PaxosConfig{Learners: 2})
	l0, l1 := d.Learners[0], d.Learners[1]
	for i := 0; i < 20; i++ {
		d.Clients[0].Submit([]byte(fmt.Sprintf("v%d", i)))
	}
	sim.RunFor(100 * time.Millisecond)
	if l0.DecidedCount() == 0 {
		t.Fatal("nothing decided")
	}
	if l0.DecidedCount() != l1.DecidedCount() {
		t.Fatalf("learners decided %d vs %d", l0.DecidedCount(), l1.DecidedCount())
	}
	for inst := uint64(1); inst <= l0.Highest(); inst++ {
		v0, ok0 := l0.Decided(inst)
		v1, ok1 := l1.Decided(inst)
		if ok0 != ok1 || string(v0) != string(v1) {
			t.Errorf("instance %d: learners disagree (%q,%v vs %q,%v)", inst, v0, ok0, v1, ok1)
		}
	}
}

// Safety: an accepted instance is never overwritten by a later Phase2A.
func TestReinitiationPreservesDecidedValue(t *testing.T) {
	sim, d := deploy(t, 4, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Submit([]byte("original"))
	sim.RunFor(10 * time.Millisecond)

	// A (confused) leader re-initiates instance 1 with a no-op.
	inject(d.CurrentLeader(), "learner", Msg{Type: MsgGapRequest, Instance: 1})
	sim.RunFor(10 * time.Millisecond)

	v, ok := d.Learner.Decided(1)
	if !ok || string(v) != "original" {
		t.Errorf("decided(1) = %q after re-initiation, want original", v)
	}
	for i, a := range d.Acceptors {
		if v, _ := a.Snapshot().Accepted(1); string(v) != "original" {
			t.Errorf("acceptor %d value overwritten to %q", i, v)
		}
	}
}

// §9.2 shift: software -> hardware leader with client-timeout stall and
// full recovery, no lost or corrupted instances.
func TestLeaderShiftSWToHW(t *testing.T) {
	sim, d := deploy(t, 5, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.RetryTimeout = 100 * time.Millisecond
	c.Start(5) // 5 kpps
	sim.RunFor(500 * time.Millisecond)
	preShift := d.Learner.DecidedCount()
	if preShift == 0 {
		t.Fatal("no progress before shift")
	}

	d.ShiftLeader(d.HWLeader)
	if d.HWLeader.Next() != 1 {
		t.Fatal("new leader must start at sequence 1 (§9.2)")
	}
	sim.RunFor(2 * time.Second)
	c.Stop()
	sim.RunFor(500 * time.Millisecond)

	if d.Learner.DecidedCount() <= preShift {
		t.Fatal("no progress after shift")
	}
	// The new leader fast-forwarded past the old instances.
	if d.HWLeader.Next() <= uint64(preShift) {
		t.Errorf("hw leader next = %d, want > %d (piggyback fast-forward)", d.HWLeader.Next(), preShift)
	}
	if d.HWLeader.StatsCounters().Get("fast_forward") == 0 {
		t.Error("fast-forward path never exercised")
	}
	// Clients needed retries across the stall.
	if c.Counters.Get("retries") == 0 {
		t.Error("expected client retries during the shift")
	}
	// Every instance eventually decided (no-op fills allowed).
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after recovery: %v", gaps)
	}
}

func TestLeaderShiftLatencyDrops(t *testing.T) {
	sim, d := deploy(t, 6, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Start(5)
	sim.RunFor(1 * time.Second)
	swMed := c.Latency.Median()
	c.Latency.Reset()

	d.ShiftLeader(d.HWLeader)
	sim.RunFor(500 * time.Millisecond) // let the stall pass
	c.Latency.Reset()
	sim.RunFor(1 * time.Second)
	hwMed := c.Latency.Median()
	c.Stop()

	// Figure 7: "the latency is halved when the leader is implemented in
	// hardware". Accept a 1.3-3x improvement band.
	ratio := float64(swMed) / float64(hwMed)
	if ratio < 1.3 || ratio > 3.5 {
		t.Errorf("sw/hw latency ratio = %.2f (sw=%v hw=%v), want ~2", ratio, swMed, hwMed)
	}
}

func TestShiftBackToSoftware(t *testing.T) {
	sim, d := deploy(t, 7, simhost.PaxosConfig{})
	c := d.Clients[0]
	ballot := d.SWLeader.HighestBallot()
	c.Start(5)
	sim.RunFor(300 * time.Millisecond)
	d.ShiftLeader(d.HWLeader)
	sim.RunFor(time.Second)
	d.ShiftLeader(d.SWLeader)
	sim.RunFor(2 * time.Second)
	c.Stop()
	sim.RunFor(500 * time.Millisecond)

	// Each shift restarts the incoming leader one ballot above the
	// outgoing one's.
	if got := d.SWLeader.HighestBallot(); got != ballot+2 {
		t.Errorf("ballot after two shifts = %d, want %d", got, ballot+2)
	}
	if d.CurrentLeader() != d.SWLeader {
		t.Error("leadership should be back in software")
	}
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after double shift: %v", gaps)
	}
	if d.Learner.DecidedCount() == 0 {
		t.Fatal("nothing decided")
	}
}

func TestShiftToSameLeaderIsNoop(t *testing.T) {
	_, d := deploy(t, 8, simhost.PaxosConfig{})
	sw, hw := d.SWLeader.HighestBallot(), d.HWLeader.HighestBallot()
	d.ShiftLeader(d.SWLeader)
	if d.CurrentLeader() != d.SWLeader || d.SWLeader.HighestBallot() != sw || d.HWLeader.HighestBallot() != hw {
		t.Error("shifting to the current leader should be a no-op")
	}
}

func TestGapRecoveryWithNoOp(t *testing.T) {
	sim, d := deploy(t, 9, simhost.PaxosConfig{})
	d.Learner.GapTimeout = 20 * time.Millisecond
	// Manufacture a gap: decide instance 3 but never instance 1-2, by
	// having the leader skip instances (simulating lost proposals): an
	// acceptor's last-voted piggyback fast-forwards it past them.
	inject(d.CurrentLeader(), "acceptor-0", Msg{Type: MsgPhase2B, LastVoted: 2})
	d.Clients[0].Submit([]byte("late"))
	sim.RunFor(5 * time.Millisecond)
	if _, ok := d.Learner.Decided(3); !ok {
		t.Fatal("instance 3 not decided")
	}
	// The learner should now detect gaps 1,2 and ask for re-initiation.
	sim.RunFor(200 * time.Millisecond)
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Fatalf("gaps not recovered: %v", gaps)
	}
	if got := d.Learner.StatsCounters().Get("noop"); got != 2 {
		t.Errorf("noop decisions = %d, want 2", got)
	}
	for _, inst := range []uint64{1, 2} {
		if v, ok := d.Learner.Decided(inst); !ok || len(v) != 0 {
			t.Errorf("instance %d = %q, want no-op", inst, v)
		}
	}
}

func TestPhase1Exchange(t *testing.T) {
	sim, d := deploy(t, 10, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Submit([]byte("v"))
	sim.RunFor(10 * time.Millisecond)
	// Run an explicit Phase1 over the decided range from the HW leader:
	// its Phase1As travel the network like any proposal.
	for _, a := range d.Acceptors {
		d.Net.Send(&simnet.Packet{Src: d.HWLeader.Addr(), Dst: a.Addr(),
			Payload: Encode(Msg{Type: MsgPhase1A, Instance: 1, Ballot: 10})})
	}
	sim.RunFor(10 * time.Millisecond)
	for i, a := range d.Acceptors {
		if got := a.StatsCounters().Get("phase1a"); got != 1 {
			t.Errorf("acceptor %d phase1a = %d", i, got)
		}
	}
	// Phase1B piggyback fast-forwards the prospective leader.
	if d.HWLeader.Next() < 2 {
		t.Errorf("hw leader next = %d, want >= 2 after promises", d.HWLeader.Next())
	}
}

func TestAcceptorRejectsStaleBallot(t *testing.T) {
	sim, d := deploy(t, 11, simhost.PaxosConfig{})
	a := d.Acceptors[0]
	// Promise ballot 5 first.
	inject(a, "ld", Msg{Type: MsgPhase1A, Instance: 1, Ballot: 5})
	sim.RunFor(time.Millisecond)
	// A stale ballot-3 proposal must be rejected.
	inject(a, "old-ld", Msg{Type: MsgPhase2A, Instance: 1, Ballot: 3, Value: []byte("stale")})
	sim.RunFor(time.Millisecond)
	if got := a.StatsCounters().Get("rejected"); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	if _, ok := a.Snapshot().Accepted(1); ok {
		t.Error("stale proposal must not be accepted")
	}
}

func TestInactiveLeaderIgnoresRequests(t *testing.T) {
	sim, d := deploy(t, 12, simhost.PaxosConfig{})
	d.SWLeader.SetActive(false)
	d.Clients[0].MaxRetries = 1
	d.Clients[0].Submit([]byte("v"))
	sim.RunFor(400 * time.Millisecond)
	if d.Learner.DecidedCount() != 0 {
		t.Error("paused leader should not decide anything")
	}
	if d.SWLeader.StatsCounters().Get("ignored_inactive") == 0 {
		t.Error("paused leader should count ignored requests")
	}
	if d.Clients[0].Counters.Get("gave_up") != 1 {
		t.Error("client should give up after max retries")
	}
}

func TestDeploymentPowerSource(t *testing.T) {
	sim, d := deploy(t, 13, simhost.PaxosConfig{})
	idleSW := d.PowerWatts(sim.Now())
	if idleSW != 39 {
		t.Errorf("software idle = %v W, want 39", idleSW)
	}
	d.ShiftLeader(d.HWLeader)
	hw := d.PowerWatts(sim.Now())
	// 39 + ~10 W card.
	if hw < 48 || hw > 51 {
		t.Errorf("hardware leader power = %v W, want ~49", hw)
	}
}

func TestClientToleratesDuplicateDecision(t *testing.T) {
	sim, d := deploy(t, 14, simhost.PaxosConfig{})
	c := d.Clients[0]
	seq := c.Submit([]byte("v"))
	sim.RunFor(10 * time.Millisecond)
	if c.Counters.Get("decided") != 1 {
		t.Fatal("request not decided")
	}
	// Deliver the same decision again: must be counted, not crash.
	inject(c, "learner", Msg{Type: MsgDecision, Instance: 1, ClientID: 0, Seq: seq, Value: []byte("v")})
	if c.Counters.Get("unmatched") != 1 {
		t.Errorf("unmatched = %d, want 1", c.Counters.Get("unmatched"))
	}
	if c.Outstanding() != 0 {
		t.Error("no requests should remain outstanding")
	}
}
