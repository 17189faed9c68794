// Command incdnsd is a runnable authoritative DNS UDP server (A records
// only, like Emu DNS) built from the repository's wire codec and zone,
// served by the shared sharded dataplane with the on-demand orchestrator
// attached. Serving is allocation-free per query: answers come from the
// zone's precompiled wire-answer cache (one copy plus an ID/flags patch),
// lookups are case-insensitive without per-query lowering, and batched
// mode resolves whole recvmmsg batches per handler call.
//
// Zone files are simple "name ipv4 [ttl]" lines:
//
//	host0.example.com 10.0.0.1 300
//
// Try it:
//
//	incdnsd -addr :5353 -zone zone.txt -ctrl :8081 &
//	dig @localhost -p 5353 host0.example.com A
//	curl localhost:8081/v1/services/dns
//	curl localhost:8081/v1/services/dns/dataplane
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/nictier"
	"incod/internal/power"
)

func main() {
	f := daemon.RegisterFlags(flag.CommandLine, daemon.Defaults{
		Addr: ":5353", Shards: 0, CrossKpps: 150,
		TierHelp: "attach the emulated NIC offload tier (Emu-DNS-style answer table): policy shifts become real dataplane transitions",
	})
	zonePath := flag.String("zone", "", "zone file (name ipv4 [ttl] per line); empty = demo zone")
	flag.Parse()

	// The zone must be fully loaded before serving starts: it is read
	// lock-free by every shard worker.
	zone := dns.NewZone()
	if *zonePath == "" {
		zone.PopulateSequential(16)
		log.Printf("incdnsd: no -zone given; serving %d demo records (host0.example.com ...)", zone.Len())
	} else if err := loadZone(zone, *zonePath); err != nil {
		log.Fatalf("incdnsd: %v", err)
	}

	eng, err := daemon.ListenEngine(f.EngineOptions,
		dns.NewHandler(zone), dataplane.Config{
			Name: "incdnsd", Shards: f.Shards,
			// DNS datagrams are small; a tight bound also caps the
			// engine's overload memory (see the dataplane package doc).
			MaxDatagram: 4096,
		})
	if err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	var tier core.Service
	if f.NICTier {
		tier = nictier.NewService("dns", eng, nictier.NewDNS(zone))
	}
	log.Printf("incdnsd: %d records", zone.Len())
	if err := f.Serve("incdnsd", "dns", eng, tier, power.NSDServer, nil); err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
}

func loadZone(zone *dns.Zone, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return fmt.Errorf("%s:%d: want 'name ipv4 [ttl]'", path, line)
		}
		ip := net.ParseIP(fields[1]).To4()
		if ip == nil {
			return fmt.Errorf("%s:%d: bad IPv4 %q", path, line, fields[1])
		}
		ttl := uint32(300)
		if len(fields) >= 3 {
			v, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return fmt.Errorf("%s:%d: bad TTL %q", path, line, fields[2])
			}
			ttl = uint32(v)
		}
		zone.Add(fields[0], [4]byte{ip[0], ip[1], ip[2], ip[3]}, ttl)
	}
	return sc.Err()
}
