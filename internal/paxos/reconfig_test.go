package paxos_test

import (
	"fmt"
	"testing"
	"time"

	. "incod/internal/paxos"
	"incod/internal/simhost"
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
	if fresh.LastVoted() != 20 {
		t.Errorf("restored LastVoted = %d", fresh.LastVoted())
	}
	for inst := uint64(1); inst <= 20; inst++ {
		want, _ := src.AcceptedValue(inst)
		got, ok := fresh.AcceptedValue(inst)
		if !ok || string(got) != string(want) {
			t.Fatalf("instance %d: restored %q, want %q", inst, got, want)
		}
	}
	// The restored state is the replacement's own: what the source votes
	// next does not appear in it.
	d.Clients[0].Submit([]byte("later"))
	sim.RunFor(10 * time.Millisecond)
	if _, ok := src.AcceptedValue(21); !ok {
		t.Fatal("source did not vote on instance 21")
	}
	if _, ok := fresh.AcceptedValue(21); ok || fresh.LastVoted() != 20 {
		t.Error("the snapshot must not alias the source's table")
	}
}

func TestReplaceAcceptorPreservesSafetyAndProgress(t *testing.T) {
	sim, d := deploy(t, 42, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Start(5)
	sim.RunFor(500 * time.Millisecond)
	before := d.Learner.DecidedCount()
	if before == 0 {
		t.Fatal("no progress before reconfiguration")
	}

	replacement, err := d.ReplaceAcceptor(1, simhost.Libpaxos("acceptor"))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	c.Stop()
	sim.RunFor(500 * time.Millisecond)

	if d.Learner.DecidedCount() <= before {
		t.Fatal("no progress after reconfiguration")
	}
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after reconfiguration: %v", gaps)
	}
	// The replacement carries the transferred history and votes on new
	// instances under the same acceptor ID.
	if replacement.LastVoted() <= uint64(before) {
		t.Errorf("replacement lastVoted = %d, want beyond transferred %d", replacement.LastVoted(), before)
	}
	if replacement.StatsCounters().Get("voted") == 0 {
		t.Error("replacement never voted")
	}
	// Old history intact on the replacement.
	if v, ok := replacement.AcceptedValue(1); !ok || len(v) == 0 {
		t.Error("transferred history missing on replacement")
	}
}

func TestReplaceAcceptorDuringLeaderShift(t *testing.T) {
	sim, d := deploy(t, 43, simhost.PaxosConfig{})
	c := d.Clients[0]
	c.Start(5)
	sim.RunFor(300 * time.Millisecond)
	if _, err := d.ReplaceAcceptor(0, simhost.P4xos()); err != nil {
		t.Fatal(err)
	}
	d.ShiftLeader(d.HWLeader)
	sim.RunFor(2 * time.Second)
	c.Stop()
	sim.RunFor(500 * time.Millisecond)
	if gaps := d.Learner.Gaps(); len(gaps) != 0 {
		t.Errorf("gaps after reconfig+shift: %v", gaps)
	}
	if d.Learner.DecidedCount() == 0 {
		t.Fatal("nothing decided")
	}
	// The replacement acceptor votes to the hardware leader now.
	if d.HWLeader.StatsCounters().Get("fast_forward") == 0 {
		t.Error("piggyback learning should still work with the replaced acceptor")
	}
}

func TestReplaceAcceptorErrors(t *testing.T) {
	_, d := deploy(t, 44, simhost.PaxosConfig{})
	if _, err := d.ReplaceAcceptor(-1, simhost.Libpaxos("acceptor")); err == nil {
		t.Error("negative index should error")
	}
	if _, err := d.ReplaceAcceptor(99, simhost.Libpaxos("acceptor")); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestDetachedAcceptorStopsVoting(t *testing.T) {
	sim, d := deploy(t, 45, simhost.PaxosConfig{})
	old := d.Acceptors[2]
	if _, err := d.ReplaceAcceptor(2, simhost.Libpaxos("acceptor")); err != nil {
		t.Fatal(err)
	}
	votesBefore := old.StatsCounters().Get("voted")
	d.Clients[0].Submit([]byte("after"))
	sim.RunFor(50 * time.Millisecond)
	if old.StatsCounters().Get("voted") != votesBefore {
		t.Error("detached acceptor still receiving proposals")
	}
	if _, ok := d.Learner.Decided(1); !ok {
		t.Error("quorum should still decide with the replacement")
	}
}
