package protocol

import (
	"testing"

	"incod/internal/dns"
)

// Every row is found under its own name and builds a handler and a tier
// over fresh state; an unknown name is refused.
func TestLookupBuildsEveryRow(t *testing.T) {
	for _, want := range []Row{KVS, DNS, Paxos} {
		row, err := Lookup(want.Name)
		if err != nil || row.Name != want.Name {
			t.Fatalf("Lookup(%q) = %q, %v", want.Name, row.Name, err)
		}
		srv := row.Build(Options{})
		if srv.Handler == nil || srv.Tier == nil {
			t.Errorf("%s: built handler %v, tier %v", row.Name, srv.Handler, srv.Tier)
		}
	}
	if _, err := Lookup("memcached"); err == nil {
		t.Error("Lookup of an unknown protocol must fail")
	}
}

// A DNS server built with no zone serves the demo zone, or Names
// sequential names; one built with a zone serves that zone.
func TestDNSZones(t *testing.T) {
	if n := DNS.Build(Options{}).Zone.Len(); n != DNS.DemoNames {
		t.Errorf("demo zone holds %d names, want %d", n, DNS.DemoNames)
	}
	if n := DNS.Build(Options{Names: 50}).Zone.Len(); n != 50 {
		t.Errorf("Names 50 built a zone of %d", n)
	}
	zone := dns.NewZone()
	if got := DNS.Build(Options{Zone: zone, Names: 50}).Zone; got != zone || got.Len() != 0 {
		t.Errorf("a given zone must be served as it is: got %p with %d names", got, got.Len())
	}
}
