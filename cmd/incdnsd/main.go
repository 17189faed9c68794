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
	addr := flag.String("addr", ":5353", "UDP listen address")
	shards := flag.Int("shards", 0, "dataplane shard workers (0 = GOMAXPROCS)")
	var opts daemon.EngineOptions
	opts.RegisterFlags(flag.CommandLine)
	zonePath := flag.String("zone", "", "zone file (name ipv4 [ttl] per line); empty = demo zone")
	crossKpps := flag.Float64("crossover", 150, "software/hardware crossover (kpps)")
	policy := flag.String("policy", "threshold",
		"placement policy: "+strings.Join(core.PolicyNames(), " | "))
	ctrl := flag.String("ctrl", "", "control-plane HTTP address (e.g. :8081); empty disables")
	useTier := flag.Bool("nictier", false,
		"attach the emulated NIC offload tier (Emu-DNS-style answer table): policy shifts become real dataplane transitions")
	flag.Parse()
	opts.Addr = *addr

	// The zone must be fully loaded before serving starts: it is read
	// lock-free by every shard worker.
	zone := dns.NewZone()
	if *zonePath == "" {
		zone.PopulateSequential(16)
		log.Printf("incdnsd: no -zone given; serving %d demo records (host0.example.com ...)", zone.Len())
	} else if err := loadZone(zone, *zonePath); err != nil {
		log.Fatalf("incdnsd: %v", err)
	}

	eng, err := daemon.ListenEngine(opts,
		dns.NewHandler(zone), dataplane.Config{
			Name: "incdnsd", Shards: *shards,
			// DNS datagrams are small; a tight bound also caps the
			// engine's overload memory (see the dataplane package doc).
			MaxDatagram: 4096,
		})
	if err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	var tierSvc core.Service
	mode := "advisory"
	if *useTier {
		tierSvc = nictier.NewService("dns", eng, nictier.NewDNS(zone))
		mode = "nictier"
	}
	io := "single-reader"
	if eng.Batched() {
		io = fmt.Sprintf("batched/%s over %d sockets", eng.Backend(), opts.Sockets)
	}
	log.Printf("incdnsd: serving %d records on %s (%s, policy %s, %s)", zone.Len(), *addr, io, *policy, mode)

	orch, svc, ctrlSrv, err := daemon.StartControlPlane(daemon.StartOptions{
		Name: "dns", Policy: *policy, CrossKpps: *crossKpps,
		Curve: power.NSDServer, CtrlAddr: *ctrl, Service: tierSvc,
		Ready: eng.Running,
	})
	if err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	defer orch.Close()
	svc.UseCounter(eng.Handled)
	if err := orch.AttachDataplane("dns", eng); err != nil {
		log.Fatalf("incdnsd: %v", err)
	}
	if ctrlSrv != nil {
		log.Printf("incdnsd: control plane on http://%s/v1/services", ctrlSrv.Addr())
	}

	daemon.OnShutdown("incdnsd", ctrlSrv, orch, eng.Close)

	eng.Run()
	log.Printf("incdnsd: shut down cleanly")
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
