package paxos

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// mailbox records what one role sends, in order.
type mailbox struct{ sent []envelope }

type envelope struct {
	to string
	m  Msg
}

func (b *mailbox) send(to string, m Msg) { b.sent = append(b.sent, envelope{to, m}) }

// take removes and returns everything sent so far.
func (b *mailbox) take() []envelope {
	out := b.sent
	b.sent = nil
	return out
}

// The first Phase2A of an instance reaches one acceptor of three, then a
// learner reports the hole. The leader must not propose a second value at
// the ballot that already carries one: it runs Phase1 at a higher ballot
// and proposes what the promise quorum reveals. Two learners fed the
// resulting votes in different orders learn the same value, and a client
// is told a value only if a quorum of acceptors holds it.
func TestPartialProposalRecoversOneValue(t *testing.T) {
	names := []string{"a0", "a1", "a2"}
	var accBox [3]mailbox
	var acc [3]*LiveAcceptor
	for i := range acc {
		acc[i] = NewLiveAcceptor(uint16(i), []string{"l0", "l1"}, accBox[i].send)
	}
	var leadBox mailbox
	lead := NewLiveLeader(1, names, leadBox.send)
	var scratch []byte
	deliver := func(to *LiveAcceptor, m Msg) Msg {
		t.Helper()
		out, ok := to.HandleDatagram(Encode(m), &scratch)
		if !ok {
			t.Fatalf("acceptor %d gave no reply to %v", to.ID(), m.Type)
		}
		reply, err := decode(out)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	toLeader := func(m Msg) { lead.HandleDatagram(Encode(m), &scratch) }

	// The request's 2A(b1, X) reaches a0 only.
	toLeader(Msg{Type: MsgClientRequest, ClientID: 7, Seq: 1, ClientAddr: "client", Value: []byte("X")})
	proposal := leadBox.take()
	if len(proposal) != 3 || proposal[0].m.Type != MsgPhase2A || proposal[0].m.Instance != 1 {
		t.Fatalf("leader proposed %+v", proposal)
	}
	toLeader(deliver(acc[0], proposal[0].m))

	// The hole is reported. The leader opens Phase1 above its ballot...
	toLeader(Msg{Type: MsgGapRequest, Instance: 1})
	prepare := leadBox.take()
	if len(prepare) != 3 || prepare[0].m.Type != MsgPhase1A || prepare[0].m.Ballot <= 1 {
		t.Fatalf("gap request answered with %+v, want a Phase1A at a fresh ballot", prepare)
	}
	// ...whose Phase1A to a0 is lost: the quorum {a1, a2} reveals no vote,
	// and the no-op goes out at the new ballot, not at ballot 1.
	toLeader(deliver(acc[1], prepare[1].m))
	toLeader(deliver(acc[2], prepare[2].m))
	fill := leadBox.take()
	if len(fill) != 3 || fill[0].m.Type != MsgPhase2A || fill[0].m.Ballot != prepare[0].m.Ballot || len(fill[0].m.Value) != 0 {
		t.Fatalf("recovery proposed %+v, want the no-op at ballot %d", fill, prepare[0].m.Ballot)
	}
	for i := range acc {
		deliver(acc[i], fill[i].m) // a0, unprepared, re-announces (b1, X)
	}

	// Every vote any acceptor sent, per learner, in two different orders.
	var votes []Msg
	for i := range accBox {
		for _, e := range accBox[i].take() {
			if e.to == "l0" {
				votes = append(votes, e.m)
			}
		}
	}
	var learnBox [2]mailbox
	learners := [2]*LiveLearner{NewLiveLearner(2, "", learnBox[0].send), NewLiveLearner(2, "", learnBox[1].send)}
	for _, v := range votes {
		learners[0].HandleDatagram(Encode(v), &scratch)
	}
	for i := len(votes) - 1; i >= 0; i-- {
		learners[1].HandleDatagram(Encode(votes[i]), &scratch)
	}
	v0, ok0 := learners[0].Decided(1)
	v1, ok1 := learners[1].Decided(1)
	if !ok0 || !ok1 || string(v0) != string(v1) {
		t.Fatalf("learners learned (%q, %v) and (%q, %v) from the same votes", v0, ok0, v1, ok1)
	}
	// Whatever a client was told, a quorum holds.
	for i := range learnBox {
		for _, e := range learnBox[i].take() {
			holding := 0
			for _, a := range acc {
				if v, ok := a.Snapshot().Accepted(e.m.Instance); ok && string(v) == string(e.m.Value) {
					holding++
				}
			}
			if holding < 2 {
				t.Errorf("learner %d told %s %q for instance %d, held by %d acceptors",
					i, e.to, e.m.Value, e.m.Instance, holding)
			}
		}
	}
}

// A promise withdraws the instance from the lookaside, the promised 2A
// overwrites the vote on the locked path, and the new vote is published
// again — while readers hammer the lock-free path. Run under -race.
func TestPromisedOverwriteOnSettledInstance(t *testing.T) {
	a := NewLiveAcceptor(1, nil, func(string, Msg) {})
	scratch := make([]byte, 0, 1024)
	ask := func(m Msg) Msg {
		t.Helper()
		out, ok := a.HandleDatagram(Encode(m), &scratch)
		if !ok {
			t.Fatalf("no reply to %v", m.Type)
		}
		reply, err := decode(out)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	ask(Msg{Type: MsgPhase2A, Instance: 5, Ballot: 1, Value: []byte("X")})
	revote := MsgView{Type: MsgPhase2A, Instance: 5, Ballot: 1, Value: []byte("dup")}
	var m Msg
	if ok := a.table.Load().TryVote(&revote, 1, &m); !ok || string(m.Value) != "X" {
		t.Fatalf("settled instance not in the lookaside: %+v %v", m, ok)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dup := Encode(Msg{Type: MsgPhase2A, Instance: 5, Ballot: 1, Value: []byte("dup")})
			buf := make([]byte, 0, 1024)
			for !stop.Load() {
				out, ok := a.HandleDatagram(dup, &buf)
				var v MsgView
				if !ok || DecodeView(out, &v) != nil || v.Type != MsgPhase2B ||
					!(v.VBallot == 1 && string(v.Value) == "X" || v.VBallot == 2 && string(v.Value) == "Y") {
					t.Errorf("re-vote answered %+v", v)
					return
				}
			}
		}()
	}

	if m := ask(Msg{Type: MsgPhase1A, Instance: 5, Ballot: 2}); m.Type != MsgPhase1B || m.Ballot != 2 || m.VBallot != 1 || string(m.Value) != "X" {
		t.Fatalf("promise: %+v", m)
	}
	if a.table.Load().TryVote(&revote, 1, &m) {
		t.Fatal("an overwritable instance must miss the lookaside")
	}
	if m := ask(Msg{Type: MsgPhase2A, Instance: 5, Ballot: 2, Value: []byte("Y")}); m.Type != MsgPhase2B || m.VBallot != 2 || string(m.Value) != "Y" {
		t.Fatalf("promised 2A did not overwrite: %+v", m)
	}
	if ok := a.table.Load().TryVote(&revote, 1, &m); !ok || m.VBallot != 2 || string(m.Value) != "Y" {
		t.Fatalf("overwrite not republished: %+v %v", m, ok)
	}
	stop.Store(true)
	wg.Wait()

	if v, _ := a.Snapshot().Accepted(5); string(v) != "Y" {
		t.Fatalf("accepted %q, want Y", v)
	}
	// A fresh 2A above the vote, never promised, overwrites nothing.
	if m := ask(Msg{Type: MsgPhase2A, Instance: 5, Ballot: 9, Value: []byte("Z")}); m.VBallot != 2 || string(m.Value) != "Y" {
		t.Fatalf("unpromised 2A displaced the vote: %+v", m)
	}
	if got := a.StatsCounters().Get("recovered"); got != 1 {
		t.Errorf("recovered = %d, want 1", got)
	}
}

// Gaps walks only above the contiguous-decided watermark and still reports
// every hole: below the highest decision, whatever order decisions land in.
func TestLearnerGapsAboveWatermark(t *testing.T) {
	decide := func(l *LiveLearner, insts ...uint64) {
		for _, inst := range insts {
			v := MsgView{Type: MsgPhase2B, Instance: inst, VBallot: 1, Value: []byte("v")}
			if inst%2 == 0 {
				v.Value = nil // a no-op decides with a nil value
			}
			if _, ok := l.fold(&v); !ok {
				t.Fatalf("instance %d did not decide at quorum 1", inst)
			}
		}
	}
	for _, tc := range []struct {
		name       string
		decide     []uint64
		contiguous uint64
		gaps       []uint64
	}{
		{"nothing decided", nil, 0, nil},
		{"contiguous prefix", []uint64{1, 2, 3}, 3, nil},
		{"hole at the watermark", []uint64{1, 2, 4}, 2, []uint64{3}},
		{"holes above the watermark", []uint64{1, 4, 7}, 1, []uint64{2, 3, 5, 6}},
		{"instance 1 missing", []uint64{2, 3}, 0, []uint64{1}},
		{"out of order, filled from above", []uint64{5, 3, 4, 1, 2}, 5, nil},
		{"out of order, hole left below", []uint64{6, 1, 5, 2, 4}, 2, []uint64{3}},
		{"hole closed later", []uint64{1, 3, 2, 5}, 3, []uint64{4}},
	} {
		l := NewLiveLearner(1, "", (&mailbox{}).send)
		decide(l, tc.decide...)
		if got := l.Gaps(); !slices.Equal(got, tc.gaps) || l.contiguous != tc.contiguous {
			t.Errorf("%s: gaps %v above watermark %d, want %v above %d",
				tc.name, got, l.contiguous, tc.gaps, tc.contiguous)
		}
	}

	// A long contiguous prefix costs a scan nothing: the walk covers the
	// instances strictly between the watermark and the highest decision.
	l := NewLiveLearner(1, "", (&mailbox{}).send)
	const prefix = 1_000_000
	for inst := uint64(1); inst <= prefix; inst++ {
		decide(l, inst)
	}
	decide(l, prefix+3)
	if walked := l.highest - 1 - l.contiguous; walked != 2 {
		t.Errorf("scan walks %d instances after a %d-instance prefix, want 2", walked, prefix)
	}
	if got := l.Gaps(); !slices.Equal(got, []uint64{prefix + 1, prefix + 2}) {
		t.Errorf("gaps = %v", got)
	}
}
