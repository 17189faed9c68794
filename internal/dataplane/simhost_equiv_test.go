package dataplane_test

// Node-vs-engine equivalence: the simulated serving node of
// internal/simhost and the real engine on loopback run one dispatch core
// over the same handlers and tiers, so the same request bytes must come
// back as the same reply bytes — host-only and with the tier lit, one
// datagram at a time and through the node's batch window.

import (
	"bytes"
	"net"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// nodeReplies serves reqs one after the other on a simulated node over
// a fresh stack and returns each request's reply.
func nodeReplies(t *testing.T, stack func() (dataplane.Handler, nictier.Tier), lit bool, window time.Duration, reqs [][]byte) [][]byte {
	t.Helper()
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.LinkConfig{})
	h, tier := stack()
	node := simhost.NewNode(net, "server", h, window, nil)
	if lit {
		if err := nictier.NewService("equiv", node, tier).Shift(core.Network); err != nil {
			t.Fatal(err)
		}
	}
	var reply []byte
	net.Attach(&simnet.NodeFunc{Address: "client", Handler: func(p *simnet.Packet) { reply = p.Payload }})
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		reply = nil
		net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: req})
		sim.Run()
		out[i] = reply
	}
	if fast, _ := node.Served(); lit != (fast > 0) {
		t.Fatalf("tier lit=%v but it served %d datagrams", lit, fast)
	}
	return out
}

// engineReplies serves the same on the real single-reader engine.
func engineReplies(t *testing.T, stack func() (dataplane.Handler, nictier.Tier), lit bool, cfg dataplane.Config, reqs [][]byte) [][]byte {
	t.Helper()
	h, tier := stack()
	e, addr := serve(t, h, cfg)
	if lit {
		if err := nictier.NewService("equiv", e, tier).Shift(core.Network); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		out[i] = exchange(t, conn, req)
	}
	return out
}

func TestSimhostNodeVsEngineByteIdenticalReplies(t *testing.T) {
	for _, app := range []struct {
		name  string
		cfg   dataplane.Config
		reqs  [][]byte
		stack func() (dataplane.Handler, nictier.Tier)
	}{
		{"kvs", dataplane.Config{Name: "equiv-kvs-node", Shards: 2, ShardBy: kvs.ShardByKey}, equivKVSRequests(),
			func() (dataplane.Handler, nictier.Tier) {
				h := kvs.NewHandler(kvs.NewShardedStore(4, 0))
				return h, nictier.NewKVS(h)
			}},
		{"dns", dataplane.Config{Name: "equiv-dns-node", Shards: 2}, equivDNSRequests(t),
			func() (dataplane.Handler, nictier.Tier) {
				zone := dns.NewZone()
				zone.PopulateSequential(16)
				return dns.NewHandler(zone), nictier.NewDNS(zone)
			}},
	} {
		for _, lit := range []bool{false, true} {
			name := app.name + "/host"
			if lit {
				name = app.name + "/tier"
			}
			t.Run(name, func(t *testing.T) {
				want := engineReplies(t, app.stack, lit, app.cfg, app.reqs)
				for _, window := range []time.Duration{0, 50 * time.Microsecond} {
					got := nodeReplies(t, app.stack, lit, window, app.reqs)
					for i := range app.reqs {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("window %v, request %d (%q): node replied %q, engine %q",
								window, i, app.reqs[i], got[i], want[i])
						}
					}
				}
			})
		}
	}
}
