// Command incdnsd is a runnable authoritative DNS UDP server (A records
// only, like Emu DNS) built from the repository's wire codec and zone,
// served by the shared sharded dataplane with the on-demand orchestrator
// attached. Serving is allocation-free per query: answers come from the
// zone's precompiled wire-answer cache (one copy plus an ID/flags patch),
// lookups are case-insensitive without per-query lowering, and batched
// mode resolves whole recvmmsg batches per handler call.
//
// Zone files are simple "name ipv4 [ttl]" lines (dns.ParseZone):
//
//	host0.example.com. 10.0.0.1 300
//
// Try it:
//
//	incdnsd -addr :5353 -zone zone.txt -ctrl :8081 &
//	dig @localhost -p 5353 host0.example.com A
//	curl localhost:8081/v1/services/dns
//	curl localhost:8081/v1/services/dns/dataplane
package main

import (
	"cmp"
	"flag"
	"log"
	"os"

	"incod/internal/daemon"
	"incod/internal/dns"
	"incod/internal/protocol"
)

func main() {
	f := daemon.RegisterFlags(flag.CommandLine, protocol.DNS)
	zonePath := flag.String("zone", "", "zone file (name ipv4 [ttl] per line); empty = demo zone")
	flag.Parse()

	var zone *dns.Zone
	if *zonePath != "" {
		data, err := os.ReadFile(*zonePath)
		if err != nil {
			log.Fatalf("incdnsd: %v", err)
		}
		if zone, err = dns.ParseZone(data); err != nil {
			log.Fatalf("incdnsd: %s: %v", *zonePath, err)
		}
	}
	eng, srv, err := f.Listen("incdnsd", protocol.Options{Zone: zone})
	if err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	log.Printf("incdnsd: %d records from %s", srv.Zone.Len(), cmp.Or(*zonePath, "the demo zone (host0.example.com ...)"))
	d, err := f.Start("incdnsd", eng, srv.Tier)
	if err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	d.Wait(nil)
}
