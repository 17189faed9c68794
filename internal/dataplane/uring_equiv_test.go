package dataplane_test

// Batched-vs-uring engine equivalence: the same handlers serving the
// same request stream through the recvmmsg/sendmmsg transport and the
// io_uring transport must produce byte-identical replies. The transport
// rung is pure I/O plumbing — any divergence here is a framing or
// buffer-ownership bug in the uring backend, not a protocol decision.

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/netio"
)

// serveBackend starts a batched engine over a 2-socket reuseport group
// using the named netio backend and returns it with its address.
func serveBackend(t *testing.T, backend string, h dataplane.Handler, cfg dataplane.Config) (*dataplane.Engine, string) {
	t.Helper()
	conns, err := netio.ListenReusePortGroup("udp4", "127.0.0.1:0", 2)
	if err != nil {
		t.Skipf("reuseport group unavailable: %v", err)
	}
	bcs := make([]netio.BatchConn, len(conns))
	for i, c := range conns {
		switch backend {
		case "uring":
			bc, err := netio.NewUringConn(c, netio.UringConfig{})
			if err != nil {
				// The probe said the kernel can do this; a per-socket
				// failure is a real bug, not a skip.
				t.Fatalf("uring conn over reuseport socket: %v", err)
			}
			bcs[i] = bc
		case "single":
			bcs[i] = netio.NewSingleConn(c)
		default:
			bcs[i] = netio.NewBatchConn(c)
		}
	}
	e := dataplane.NewBatchedConns(conns, bcs, h, cfg)
	e.Start()
	t.Cleanup(e.Close)
	return e, conns[0].LocalAddr().String()
}

// compareReplies sends every request to both engines and demands the
// same bytes back from each.
func compareReplies(t *testing.T, addrA, addrB string, reqs [][]byte) {
	t.Helper()
	connA, err := net.Dial("udp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	connB, err := net.Dial("udp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	for i, req := range reqs {
		a := exchange(t, connA, req)
		b := exchange(t, connB, req)
		if !bytes.Equal(a, b) {
			t.Fatalf("request %d: reply %q from %s != reply %q from %s", i, a, addrA, b, addrB)
		}
	}
}

// equivDNSRequests is the DNS stream of the equivalence suites, for a
// zone of 16 sequential names: every name, an NXDOMAIN and a
// case-folded hit.
func equivDNSRequests(t *testing.T) [][]byte {
	t.Helper()
	var reqs [][]byte
	for i := 0; i < 16; i++ {
		q, err := dns.Encode(dns.NewQuery(uint16(1000+i), dns.SequentialName(i)))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, q)
	}
	q, _ := dns.Encode(dns.NewQuery(2000, "nowhere.example.com"))
	reqs = append(reqs, q)
	q, _ = dns.Encode(dns.NewQuery(2001, "HOST3.EXAMPLE.COM"))
	return append(reqs, q)
}

// equivKVSRequests is the KVS stream: a mutation history whose replies
// stay identical on two fresh stores only if both engines deliver every
// payload intact, in order per key.
func equivKVSRequests() [][]byte {
	frame := func(id uint16, r memcache.Request) []byte {
		return memcache.EncodeFrame(memcache.Frame{RequestID: id, Total: 1}, memcache.EncodeRequest(r))
	}
	var reqs [][]byte
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		reqs = append(reqs,
			frame(uint16(3000+i), memcache.Request{Op: memcache.OpSet, Key: key,
				Flags: uint32(i), Value: []byte(fmt.Sprintf("value-%d", i))}),
			frame(uint16(3100+i), memcache.Request{Op: memcache.OpGet, Key: key}))
	}
	return append(reqs,
		frame(3200, memcache.Request{Op: memcache.OpGet, Key: "missing"}),
		frame(3201, memcache.Request{Op: memcache.OpDelete, Key: "key-0"}),
		frame(3202, memcache.Request{Op: memcache.OpGet, Key: "key-0"}),
		[]byte("get key-1\r\n"), // raw ASCII path through both engines
	)
}

func TestBatchedVsUringByteIdenticalReplies(t *testing.T) {
	if err := netio.ProbeUring(); err != nil {
		t.Skipf("io_uring unavailable: %v", err)
	}

	t.Run("dns", func(t *testing.T) {
		zone := dns.NewZone()
		zone.PopulateSequential(16)
		eA, addrA := serveBackend(t, "mmsg", dns.NewHandler(zone), dataplane.Config{Name: "equiv-dns-mmsg"})
		eB, addrB := serveBackend(t, "uring", dns.NewHandler(zone), dataplane.Config{Name: "equiv-dns-uring"})
		if got := eA.Backend(); got != "mmsg" {
			t.Fatalf("batched engine backend = %q, want mmsg", got)
		}
		if got := eB.Backend(); got != "uring" {
			t.Fatalf("uring engine backend = %q, want uring", got)
		}
		compareReplies(t, addrA, addrB, equivDNSRequests(t))
	})

	t.Run("kvs", func(t *testing.T) {
		// Separate stores, mutated by the same request stream.
		mk := func(name string) string {
			_, addr := serveBackend(t, map[bool]string{true: "uring", false: "mmsg"}[name == "uring"],
				kvs.NewHandler(kvs.NewShardedStore(4, 0)),
				dataplane.Config{Name: "equiv-kvs-" + name, ShardBy: kvs.ShardByKey})
			return addr
		}
		addrA, addrB := mk("mmsg"), mk("uring")
		compareReplies(t, addrA, addrB, equivKVSRequests())
	})
}
