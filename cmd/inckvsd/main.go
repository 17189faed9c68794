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

	"incod/internal/daemon"
	"incod/internal/protocol"
)

func main() {
	f := daemon.RegisterFlags(flag.CommandLine, protocol.KVS)
	maxEntries := flag.Int("max-entries", 0, "LRU-bound the store to this many entries (0 = the default, 1<<20)")
	flag.Parse()

	eng, srv, err := f.Listen("inckvsd", protocol.Options{MaxEntries: *maxEntries})
	if err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	log.Printf("inckvsd: memcached UDP over %d store shards", srv.Store.Shards())
	d, err := f.Start("inckvsd", eng, srv.Tier)
	if err != nil {
		log.Fatalf("inckvsd: %v", err)
	}
	d.Wait(nil)
}
