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
	"log"

	"incod/internal/core"
	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/power"
)

func main() {
	f := daemon.RegisterFlags(flag.CommandLine, daemon.Defaults{
		Addr: ":11211", Shards: 0, CrossKpps: 80,
		TierHelp: "attach the emulated NIC offload tier (LaKe-style lookaside cache): policy shifts become real dataplane transitions",
	})
	maxEntries := flag.Int("max-entries", 0, "LRU-bound the store to this many entries (0 = the default, 1<<20)")
	flag.Parse()

	store := kvs.NewShardedStore(f.Shards, *maxEntries)
	// A per-shard top-16 of the GET path, surfaced as hot_keys in
	// /v1/dataplane.
	store.EnableHotKeys(16)
	handler := kvs.NewHandler(store)
	eng, err := daemon.ListenEngine(f.EngineOptions,
		handler, dataplane.Config{Name: "inckvsd", Shards: f.Shards})
	if err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	var tier core.Service
	if f.NICTier {
		tier = nictier.NewService("kvs", eng, nictier.NewKVS(handler))
	}
	log.Printf("inckvsd: memcached UDP over %d store shards", store.Shards())
	if err := f.Serve("inckvsd", "kvs", eng, tier, power.MemcachedMellanox, nil); err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
}
