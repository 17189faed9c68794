package paxos_test

import (
	"fmt"
	"testing"
	"time"

	. "incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	sim, d := deploy(t, 41, simhost.PaxosConfig{})
	for i := 0; i < 20; i++ {
		d.Clients[0].Submit([]byte(fmt.Sprintf("v%d", i)))
	}
	sim.RunFor(50 * time.Millisecond)

	src := d.Acceptors[0]
	snap := src.Snapshot()
	if snap.Instances() != 20 || snap.LastVoted() != 20 {
		t.Fatalf("snapshot: %d records, lastVoted %d", snap.Instances(), snap.LastVoted())
	}
	fresh := NewLiveAcceptor(9, nil, func(string, Msg) {})
	fresh.EndHandoff(snap)
	if fresh.Snapshot().LastVoted() != 20 {
		t.Errorf("restored LastVoted = %d", fresh.Snapshot().LastVoted())
	}
	for inst := uint64(1); inst <= 20; inst++ {
		want, _ := src.Snapshot().Accepted(inst)
		got, ok := fresh.Snapshot().Accepted(inst)
		if !ok || string(got) != string(want) {
			t.Fatalf("instance %d: restored %q, want %q", inst, got, want)
		}
	}
	// The restored state is the replacement's own: what the source votes
	// next does not appear in it.
	d.Clients[0].Submit([]byte("later"))
	sim.RunFor(10 * time.Millisecond)
	if _, ok := src.Snapshot().Accepted(21); !ok {
		t.Fatal("source did not vote on instance 21")
	}
	if _, ok := fresh.Snapshot().Accepted(21); ok || fresh.Snapshot().LastVoted() != 20 {
		t.Error("the snapshot must not alias the source's table")
	}
}

// An acceptor cut off from the network gets no more proposals, and the
// two left still form a quorum.
func TestDetachedAcceptorStopsVoting(t *testing.T) {
	sim, d := deploy(t, 45, simhost.PaxosConfig{})
	old := d.Acceptors[2]
	d.Net.SetFaultPlan(simnet.FaultPlan{Links: map[[2]simnet.Addr]simnet.Faults{
		{d.CurrentLeader().Addr(), old.Addr()}: {LossRate: 1},
	}})
	votesBefore := old.StatsCounters().Get("voted")
	d.Clients[0].Submit([]byte("after"))
	sim.RunFor(50 * time.Millisecond)
	if old.StatsCounters().Get("voted") != votesBefore {
		t.Error("detached acceptor still receiving proposals")
	}
	if _, ok := d.Learner.Decided(1); !ok {
		t.Error("quorum should still decide without the cut-off acceptor")
	}
}
