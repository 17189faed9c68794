package paxos

import (
	"testing"

	"incod/internal/dataplane"
)

func mkItems(datagrams [][]byte) []*dataplane.BatchItem {
	items := make([]*dataplane.BatchItem, len(datagrams))
	for i, dg := range datagrams {
		scratch := make([]byte, 0, 1024)
		items[i] = &dataplane.BatchItem{In: dg, Scratch: &scratch}
	}
	return items
}

// TestAcceptor2AZeroAlloc is the acceptance bar for the Paxos tentpole:
// the steady-state acceptor paths — a re-vote 2A answered with its 2B,
// and a 1A promise on a known instance — do zero heap allocations, in
// both the single and the batch form. (A fresh 2A pays exactly the
// retention copy of its value, which must outlive the datagram.)
func TestAcceptor2AZeroAlloc(t *testing.T) {
	a := NewLiveAcceptor(1, nil, func(string, Msg) {})
	scratch := make([]byte, 0, 4096)
	p2a := Encode(Msg{Type: MsgPhase2A, Instance: 7, Ballot: 3, ClientID: 1, Seq: 9,
		ClientAddr: "client-1:2345", Value: []byte("value-of-modest-size")})
	p1a := Encode(Msg{Type: MsgPhase1A, Instance: 7, Ballot: 3})
	if _, ok := a.HandleDatagram(p2a, &scratch); !ok {
		t.Fatal("seed 2A failed")
	}
	for name, dg := range map[string][]byte{"2A re-vote": p2a, "1A promise": p1a} {
		ok := true
		allocs := testing.AllocsPerRun(2000, func() {
			out, served := a.HandleDatagram(dg, &scratch)
			ok = ok && served && len(out) > 0
		})
		if !ok {
			t.Fatalf("%s: no reply", name)
		}
		if allocs != 0 {
			t.Fatalf("%s allocates %.1f times per op, want 0", name, allocs)
		}
	}

	const n = 32
	items := make([]*dataplane.BatchItem, n)
	for i := range items {
		s := make([]byte, 0, 1024)
		items[i] = &dataplane.BatchItem{Scratch: &s}
	}
	allocs := testing.AllocsPerRun(500, func() {
		for i := range items {
			items[i].In = p2a
			items[i].Out = nil
			items[i].Served = false
		}
		a.HandleBatch(items)
	})
	if allocs != 0 {
		t.Fatalf("HandleBatch allocates %.1f times per batch, want 0", allocs)
	}
	if len(items[0].Out) == 0 {
		t.Fatal("batched 2A got no reply")
	}
}
