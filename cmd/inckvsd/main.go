// Command inckvsd is a runnable memcached-protocol UDP server built from
// the same store and codec the simulator uses, served by the shared
// sharded dataplane (internal/dataplane) with an embedded on-demand
// orchestrator: it meters the live query rate, runs the selected §9.1
// placement policy, and — with -nictier — actually shifts the service
// between the host handler and an emulated LaKe-style NIC cache tier
// (without the flag the decision stays advisory).
//
// Try it:
//
//	inckvsd -addr :11211 -ctrl :8080 -policy threshold -shards 4 -nictier &
//	# framed clients (memcached UDP mode) and raw ASCII both work:
//	printf 'set k 0 0 5\r\nhello\r\n' | socat - UDP:localhost:11211
//	printf 'get k\r\n' | socat - UDP:localhost:11211
//	curl localhost:8080/v1/services/kvs           # placement, shifts, durations
//	curl localhost:8080/v1/services/kvs/dataplane # tier hit ratio + power
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/power"
)

func main() {
	addr := flag.String("addr", ":11211", "UDP listen address")
	shards := flag.Int("shards", 0, "dataplane shard workers (0 = GOMAXPROCS)")
	var opts daemon.EngineOptions
	opts.RegisterFlags(flag.CommandLine)
	maxEntries := flag.Int("max-entries", 0, "LRU-bound the store to this many entries (0 = unbounded)")
	crossKpps := flag.Float64("crossover", 80, "software/hardware crossover (kpps)")
	policy := flag.String("policy", "threshold",
		"placement policy: "+strings.Join(core.PolicyNames(), " | "))
	ctrl := flag.String("ctrl", "", "control-plane HTTP address (e.g. :8080); empty disables")
	useTier := flag.Bool("nictier", false,
		"attach the emulated NIC offload tier (LaKe-style lookaside cache): policy shifts become real dataplane transitions")
	flag.Parse()
	opts.Addr = *addr

	store := kvs.NewShardedStore(*shards, *maxEntries)
	// A per-shard top-16 of the GET path, surfaced as hot_keys in
	// /v1/dataplane.
	store.EnableHotKeys(16)
	handler := kvs.NewHandler(store)
	eng, err := daemon.ListenEngine(opts,
		handler, dataplane.Config{Name: "inckvsd", Shards: *shards, ShardBy: kvs.ShardByKey})
	if err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	var tierSvc core.Service
	mode := "advisory"
	if *useTier {
		tierSvc = nictier.NewService("kvs", eng, nictier.NewKVS(handler))
		mode = "nictier"
	}
	io := "single-reader"
	if eng.Batched() {
		io = fmt.Sprintf("batched/%s over %d sockets", eng.Backend(), opts.Sockets)
	}
	log.Printf("inckvsd: serving memcached UDP on %s (%d store shards, %s, policy %s, %s, crossover %.0f kpps)",
		*addr, store.Shards(), io, *policy, mode, *crossKpps)

	orch, svc, ctrlSrv, err := daemon.StartControlPlane(daemon.StartOptions{
		Name: "kvs", Policy: *policy, CrossKpps: *crossKpps,
		Curve: power.MemcachedMellanox, CtrlAddr: *ctrl, Service: tierSvc,
		Ready: eng.Running,
	})
	if err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	defer orch.Close()
	svc.UseCounter(eng.Handled)
	if err := orch.AttachDataplane("kvs", eng); err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	if ctrlSrv != nil {
		log.Printf("inckvsd: control plane on http://%s/v1/services", ctrlSrv.Addr())
	}

	// Graceful exit: a signal (or a control-plane serve failure) drains
	// the HTTP server, stops the orchestrator, and drains the dataplane
	// (queued datagrams are still answered before the socket closes).
	daemon.OnShutdown("inckvsd", ctrlSrv, orch, eng.Close)

	eng.Run()
	log.Printf("inckvsd: shut down cleanly")
}
