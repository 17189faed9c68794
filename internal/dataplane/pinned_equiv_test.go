package dataplane_test

// Pinned-batched-vs-single-reader equivalence: the configuration the
// benchmark gates (per-shard sockets, workers locked to their threads and
// waiting for datagrams on them) against the portable baseline (one
// reader, one datagram per call, netpoller waits only). How a worker
// waits is pure I/O plumbing; the replies must be the same bytes.

import (
	"testing"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
)

func TestPinnedBatchedVsSingleReaderByteIdenticalReplies(t *testing.T) {
	t.Run("dns", func(t *testing.T) {
		zone := dns.NewZone()
		zone.PopulateSequential(16)
		_, single := serve(t, dns.NewHandler(zone), dataplane.Config{Name: "equiv-dns-single", Shards: 2})
		e, pinned := serveBackend(t, "mmsg", dns.NewHandler(zone),
			dataplane.Config{Name: "equiv-dns-pinned", PinShards: true})
		compareReplies(t, single, pinned, equivDNSRequests(t))
		t.Logf("pinned engine: backend %q, pinned %v", e.Backend(), e.Snapshot().Pinned)
	})

	t.Run("kvs", func(t *testing.T) {
		_, single := serve(t, kvs.NewHandler(kvs.NewShardedStore(4, 0)),
			dataplane.Config{Name: "equiv-kvs-single", Shards: 2, ShardBy: kvs.ShardByKey})
		_, pinned := serveBackend(t, "mmsg", kvs.NewHandler(kvs.NewShardedStore(4, 0)),
			dataplane.Config{Name: "equiv-kvs-pinned", PinShards: true, ShardBy: kvs.ShardByKey})
		compareReplies(t, single, pinned, equivKVSRequests())
	})
}
