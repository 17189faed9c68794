package nictier_test

import (
	"net/netip"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/nictier"
	"incod/internal/paxos"
)

func mkBatch(datagrams [][]byte) []*dataplane.BatchItem {
	items := make([]*dataplane.BatchItem, len(datagrams))
	for i, dg := range datagrams {
		s := make([]byte, 0, 4096)
		items[i] = &dataplane.BatchItem{In: dg, Scratch: &s}
	}
	return items
}

func encodeDNSQuery(t *testing.T, id uint16, name string) []byte {
	t.Helper()
	q, err := dns.Encode(dns.NewQuery(id, name))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDNSTierUnwarmedBatchFallsThrough: with no table installed, a whole
// batch must fall through to the host untouched.
func TestDNSTierUnwarmedBatchFallsThrough(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(2)
	tier := nictier.NewDNS(zone)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	items := mkBatch([][]byte{encodeDNSQuery(t, 1, dns.SequentialName(0))})
	tier.TryHandleBatch(items)
	if items[0].Served || items[0].Out != nil {
		t.Fatalf("unwarmed tier must not serve: %+v", items[0])
	}
}

// TestDNSTierAnswerHitZeroAlloc mirrors the KVS tier's acceptance bar:
// a warmed answer hit — mixed-case name included — and an authoritative
// NXDOMAIN do zero heap allocations, per datagram and per batch.
func TestDNSTierAnswerHitZeroAlloc(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(8)
	tier := nictier.NewDNS(zone)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 4096)
	for name, dg := range map[string][]byte{
		"hit":      encodeDNSQuery(t, 1, "HOST3.Example.COM"),
		"nxdomain": encodeDNSQuery(t, 2, "NOWHERE.example.com"),
	} {
		served := true
		allocs := testing.AllocsPerRun(2000, func() {
			_, ok, _ := tier.TryHandleDatagram(dg, netip.AddrPort{}, &scratch)
			served = served && ok
		})
		if !served {
			t.Fatalf("%s: tier did not serve", name)
		}
		if allocs != 0 {
			t.Fatalf("%s path allocates %.1f times per op, want 0", name, allocs)
		}
	}

	q := encodeDNSQuery(t, 3, "Host5.Example.Com")
	items := mkBatch(make([][]byte, 32))
	allocs := testing.AllocsPerRun(500, func() {
		for i := range items {
			items[i].In = q
			items[i].Out = nil
			items[i].Served = false
		}
		tier.TryHandleBatch(items)
	})
	if allocs != 0 {
		t.Fatalf("TryHandleBatch allocates %.1f times per batch, want 0", allocs)
	}
	if !items[0].Served || len(items[0].Out) == 0 {
		t.Fatal("batched hit was not served")
	}
}

// TestPaxosTierSteadyStateZeroAlloc: promises and re-votes on the tier's
// handed-off table allocate nothing, per datagram and per batch.
func TestPaxosTierSteadyStateZeroAlloc(t *testing.T) {
	host := paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})
	scratch := make([]byte, 0, 4096)
	p2a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 4, Ballot: 2,
		ClientAddr: "c:9", Value: []byte("steady-value")})
	if _, ok := host.HandleDatagram(p2a, &scratch); !ok {
		t.Fatal("seed vote failed")
	}
	tier := nictier.NewPaxosAcceptor(host)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	p1a := paxos.Encode(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 4, Ballot: 2})
	for name, dg := range map[string][]byte{"2A re-vote": p2a, "1A promise": p1a} {
		served := true
		allocs := testing.AllocsPerRun(2000, func() {
			_, ok, _ := tier.TryHandleDatagram(dg, netip.AddrPort{}, &scratch)
			served = served && ok
		})
		if !served {
			t.Fatalf("%s: tier did not serve", name)
		}
		if allocs != 0 {
			t.Fatalf("%s allocates %.1f times per op, want 0", name, allocs)
		}
	}

	items := mkBatch(make([][]byte, 32))
	allocs := testing.AllocsPerRun(500, func() {
		for i := range items {
			items[i].In = p2a
			items[i].Out = nil
			items[i].Served = false
		}
		tier.TryHandleBatch(items)
	})
	if allocs != 0 {
		t.Fatalf("TryHandleBatch allocates %.1f times per batch, want 0", allocs)
	}
	if !items[0].Served || len(items[0].Out) == 0 {
		t.Fatal("batched 2A was not served")
	}
}

// TestDNSTierTagsExactlyWhatItServes: the tier marks an item Tagged
// exactly when it serves it (an answer or an NXDOMAIN, repeating the
// query's ID) and leaves what falls through to the host — a non-A
// question, a malformed datagram — untouched.
func TestDNSTierTagsExactlyWhatItServes(t *testing.T) {
	zone := dns.NewZone()
	zone.PopulateSequential(8)
	tier := nictier.NewDNS(zone)
	if err := tier.Stage(); err != nil {
		t.Fatal(err)
	}
	if err := tier.Warm(); err != nil {
		t.Fatal(err)
	}
	mx := dns.NewQuery(3, dns.SequentialName(2))
	mx.QType = 15
	mxq, err := dns.Encode(mx)
	if err != nil {
		t.Fatal(err)
	}
	items := mkBatch([][]byte{
		encodeDNSQuery(t, 1, "HOST3.Example.COM"),
		encodeDNSQuery(t, 2, "NOWHERE.example.com"),
		mxq,
		{0, 4, 1},
	})
	tier.TryHandleBatch(items)
	for i, it := range items {
		serves := i < 2
		if it.Served != serves || it.Tagged != serves || (len(it.Out) > 0) != serves {
			t.Fatalf("item %d: Served %v Tagged %v with %d reply bytes, want served and tagged %v", i, it.Served, it.Tagged, len(it.Out), serves)
		}
		if serves && (it.Out[0] != 0 || int(it.Out[1]) != i+1) {
			t.Fatalf("item %d: reply %x does not repeat ID %d", i, it.Out, i+1)
		}
	}
}
