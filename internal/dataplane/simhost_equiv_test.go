package dataplane_test

// Node-vs-engine equivalence: the simulated serving node of
// internal/simhost and the real engine on loopback run one dispatch core
// over the same handlers and tiers, so the same request bytes must come
// back as the same reply bytes — host-only and with the tier lit, one
// datagram at a time and through the node's batch window.

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
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

// The Paxos roles answer their source through the serving loop and reach
// everyone else through a Sender, so for them "the same behaviour" is the
// reply of every datagram plus the fan-out, in order.

// roleRun is what one scripted run of a role produced: the reply to each
// datagram (nil for none) and the fan-out as "to|wire bytes".
type roleRun struct {
	replies [][]byte
	fanOut  []string
}

// nodeRole runs script through the role mk builds, on a simulated node.
func nodeRole(mk func(paxos.Sender) dataplane.Handler, window time.Duration, script [][]byte) roleRun {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.LinkConfig{})
	var node *simhost.Node
	node = simhost.NewNode(net, "server", mk(func(to string, m paxos.Msg) { node.Sender()(to, m) }), window, nil)
	run := roleRun{replies: make([][]byte, len(script))}
	at := 0
	net.SetTracer(func(kind string, _ simnet.Time, src, dst simnet.Addr, payload []byte) {
		switch {
		case kind != simnet.TraceSend || src != "server":
		case dst == "client":
			run.replies[at] = append([]byte(nil), payload...)
		default:
			run.fanOut = append(run.fanOut, string(dst)+"|"+string(payload))
		}
	})
	for i, dg := range script {
		at = i
		net.Send(&simnet.Packet{Src: "client", Dst: "server", Payload: dg})
		sim.Run()
	}
	return run
}

// engineRole runs script through the same role on the real single-reader
// engine; expect says which datagrams a reply must be awaited for.
func engineRole(t *testing.T, mk func(paxos.Sender) dataplane.Handler, script [][]byte, expect [][]byte) roleRun {
	t.Helper()
	var mu sync.Mutex
	var run roleRun
	h := mk(func(to string, m paxos.Msg) {
		mu.Lock()
		run.fanOut = append(run.fanOut, to+"|"+string(paxos.Encode(m)))
		mu.Unlock()
	})
	e, addr := serve(t, h, dataplane.Config{Name: "equiv-paxos", Shards: 1})
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 64*1024)
	for i, dg := range script {
		if _, err := conn.Write(dg); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); e.Handled() < uint64(i+1); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("engine never handled datagram %d", i)
			}
		}
		var reply []byte
		if expect[i] != nil {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("datagram %d: no reply from the engine: %v", i, err)
			}
			reply = append([]byte(nil), buf[:n]...)
		}
		run.replies = append(run.replies, reply)
	}
	conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("engine sent a reply the node did not: %q", buf[:n])
	}
	mu.Lock()
	defer mu.Unlock()
	return run
}

func TestSimhostNodeVsEnginePaxosRoles(t *testing.T) {
	enc := paxos.Encode
	vote := func(inst uint64, ballot uint32, node uint16, value string) []byte {
		return enc(paxos.Msg{Type: paxos.MsgPhase2B, Instance: inst, Ballot: ballot, VBallot: ballot,
			NodeID: node, LastVoted: inst, ClientID: 4, Seq: inst, ClientAddr: "client-9:1", Value: []byte(value)})
	}
	for _, role := range []struct {
		name   string
		mk     func(paxos.Sender) dataplane.Handler
		script [][]byte
	}{
		{"acceptor", func(send paxos.Sender) dataplane.Handler {
			return paxos.NewLiveAcceptor(3, []string{"l1", "l2"}, send)
		}, [][]byte{
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 1, ClientID: 4, Seq: 9, ClientAddr: "client-9:1", Value: []byte("X")}),
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 1, Value: []byte("dup")}), // settled re-vote
			enc(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 1, Ballot: 2}),                       // promise above the vote
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 1, Value: []byte("dup")}), // now through the rules
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 2, Value: []byte("Y")}),   // promised overwrite
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 1, Ballot: 1, Value: []byte("dup")}), // republished
			enc(paxos.Msg{Type: paxos.MsgPhase1A, Instance: 7, Ballot: 5}),
			enc(paxos.Msg{Type: paxos.MsgPhase2A, Instance: 7, Ballot: 3, Value: []byte("low")}), // nack
			enc(paxos.Msg{Type: paxos.MsgPhase2B, Instance: 1, Ballot: 1}),                       // not for an acceptor
			{1, 2, 3},
		}},
		{"leader", func(send paxos.Sender) dataplane.Handler {
			return paxos.NewLiveLeader(1, []string{"a0", "a1", "a2"}, send)
		}, [][]byte{
			enc(paxos.Msg{Type: paxos.MsgClientRequest, ClientID: 4, Seq: 1, ClientAddr: "client-9:1", Value: []byte("X")}),
			vote(30, 1, 0, "old"), // fast-forward
			enc(paxos.Msg{Type: paxos.MsgClientRequest, ClientID: 4, Seq: 2, ClientAddr: "client-9:1", Value: []byte("Y")}),
			enc(paxos.Msg{Type: paxos.MsgGapRequest, Instance: 12}),
			enc(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 0, LastVoted: 31}),
			enc(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 1, VBallot: 1, ClientID: 4, Seq: 7, ClientAddr: "client-9:1", Value: []byte("held")}),
			enc(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 12, Ballot: 2, NodeID: 2}), // after the quorum
			{0},
		}},
		{"learner", func(send paxos.Sender) dataplane.Handler {
			return paxos.NewLiveLearner(2, "leader", send)
		}, [][]byte{
			vote(1, 1, 0, "X"), vote(1, 1, 0, "X"), vote(1, 1, 1, "X"), vote(1, 1, 2, "X"),
			vote(2, 1, 0, "A"), vote(2, 2, 1, ""), vote(2, 2, 2, ""), // a no-op outvotes a lower value
			vote(3, 1, 0, "P"), vote(3, 1, 1, "Q"), vote(3, 1, 2, "Q"), // one ballot, two values: only Q has a quorum
			enc(paxos.Msg{Type: paxos.MsgPhase1B, Instance: 1}),
			{9},
		}},
	} {
		t.Run(role.name, func(t *testing.T) {
			nodes := []roleRun{nodeRole(role.mk, 0, role.script), nodeRole(role.mk, 50*time.Microsecond, role.script)}
			want := engineRole(t, role.mk, role.script, nodes[0].replies)
			if len(want.fanOut) == 0 {
				t.Fatal("script produced no fan-out")
			}
			for w, got := range nodes {
				for i := range role.script {
					if !bytes.Equal(got.replies[i], want.replies[i]) {
						t.Fatalf("window #%d, datagram %d: node replied %q, engine %q", w, i, got.replies[i], want.replies[i])
					}
				}
				if len(got.fanOut) != len(want.fanOut) {
					t.Fatalf("window #%d: node fanned out %d messages, engine %d", w, len(got.fanOut), len(want.fanOut))
				}
				for i := range want.fanOut {
					if got.fanOut[i] != want.fanOut[i] {
						t.Fatalf("window #%d, fan-out %d: node sent %q, engine %q", w, i, got.fanOut[i], want.fanOut[i])
					}
				}
			}
		})
	}
}
