package trafficgen_test

// The generator against the code it loads: each app's wire forms through
// the real handlers and roles, and the two drivers — simhost.Client on
// the virtual clock, Sockets on loopback — against the same handler.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
	. "incod/internal/trafficgen"
)

func TestProfileApply(t *testing.T) {
	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	c := simhost.NewClient(net, "client", "nobody", &KVS{Key: func() string { return "k" }})
	end := c.Run(Profile{Hold(5000, time.Second), Hold(10000, time.Second)})
	// Offered 5 kpps, then 10 kpps, then nothing.
	var sent []uint64
	for i := 0; i < 3; i++ {
		sim.RunFor(time.Second)
		sent = append(sent, c.Sent())
	}
	sim.Run()
	sent = append(sent, c.Sent())
	want := []float64{5000, 15000, 15000, 15000}
	for i := range want {
		if got := float64(sent[i]); got < 0.95*want[i] || got > 1.05*want[i] || sent[i] < sent[max(i-1, 0)] {
			t.Fatalf("sent by second = %v, want %v within the Poisson spread", sent, want)
		}
	}
	if sent[3] != sent[2] {
		t.Fatalf("sent by second = %v: the stream outlived the profile", sent)
	}
	if end != simnet.Time(2*time.Second) {
		t.Errorf("end = %v, want 2s", end)
	}
}

// TestRequestRoundTrip sends what each app builds through the code each
// daemon serves with and reads what comes back with the same app: the id
// must survive, and the reply must be the answer the workload is meant to
// draw (a hit, an address, a vote, a decision).
func TestRequestRoundTrip(t *testing.T) {
	const keys = 16
	sampler := NewZipfKeys(rand.New(rand.NewSource(1)), keys, 1.06)
	store := kvs.NewShardedStore(2, 0)
	for i := 0; i < keys; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: []byte("value")})
	}
	zone := dns.NewZone()
	zone.PopulateSequential(keys)

	// serve is one handler answering its caller directly.
	serve := func(h dataplane.Handler) func(in []byte, reply func([]byte)) {
		scratch := make([]byte, 0, 4096)
		return func(in []byte, reply func([]byte)) {
			if out, ok := h.HandleDatagram(in, &scratch); ok {
				reply(out)
			}
		}
	}
	// consensus is leader -> three acceptors -> learner, the decision
	// going to whatever address the request names.
	consensus := func(in []byte, reply func([]byte)) {
		type datagram struct {
			to string
			b  []byte
		}
		var queue []datagram
		send := func(to string, m paxos.Msg) { queue = append(queue, datagram{to, paxos.Encode(m)}) }
		roles := map[string]dataplane.Handler{
			"leader":  paxos.NewLiveLeader(1, []string{"a0", "a1", "a2"}, send),
			"learner": paxos.NewLiveLearner(2, "leader", send),
		}
		for i, a := range []string{"a0", "a1", "a2"} {
			roles[a] = paxos.NewLiveAcceptor(uint16(i), []string{"learner"}, send)
		}
		queue = append(queue, datagram{"leader", in})
		var scratch []byte
		for ; len(queue) > 0; queue = queue[1:] {
			if h, ok := roles[queue[0].to]; ok {
				h.HandleDatagram(queue[0].b, &scratch)
			} else if queue[0].to == "proposer" {
				reply(queue[0].b)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		app    App
		server func(in []byte, reply func([]byte))
		want   Verdict
	}{
		{"kvs", &KVS{Key: sampler.Next}, serve(kvs.NewHandler(store)), Hit},
		{"dns", &DNS{Name: func() string { return dns.SequentialName(int(sampler.NextIndex())) }},
			serve(dns.NewHandler(zone)), Resolved},
		{"vote", Vote{Value: []byte("cmd")},
			serve(paxos.NewLiveAcceptor(1, nil, func(string, paxos.Msg) {})), Voted},
		{"proposer", &Proposer{ID: 7, Addr: "proposer"}, consensus, Decided},
	} {
		var replies [][]byte
		c := NewClient(tc.app, func(d []byte) {
			if _, v := tc.app.Reply(d); v != Bad {
				t.Errorf("%s: a request reads as a reply (%v)", tc.name, v)
			}
			tc.server(d, func(out []byte) { replies = append(replies, append([]byte(nil), out...)) })
		})
		// Request numbers on both sides of the 16-bit wrap.
		ns := []uint64{1, 2, 255, 256, 40000, 65535, 65536, 65537}
		for i, n := range ns {
			datagram, key, err := tc.app.Request(n, nil)
			if err != nil {
				t.Fatalf("%s: request %d: %v", tc.name, n, err)
			}
			if tc.name != "proposer" && key != n&0xffff || tc.name == "proposer" && key != n {
				t.Errorf("%s: request %d has key %d", tc.name, n, key)
			}
			var got [][]byte
			tc.server(datagram, func(out []byte) { got = append(got, append([]byte(nil), out...)) })
			if len(got) != 1 {
				t.Fatalf("%s: request %d drew %d replies", tc.name, n, len(got))
			}
			if k, v := tc.app.Reply(got[0]); k != key || v != tc.want {
				t.Errorf("%s: reply to request %d reads as key %d, verdict %v; want %d, %v", tc.name, n, k, v, key, tc.want)
			}
			// And through the core, which numbers requests itself.
			if _, err := c.Submit(time.Duration(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range replies {
			c.Receive(time.Hour, r)
		}
		c.Receive(time.Hour, []byte{0xff})
		if got := c.Counters.Get("recv"); got != uint64(len(ns)) || c.Counters.Get("bad") != 1 || c.Outstanding() != 0 {
			t.Errorf("%s: %d sent through the core: %v, outstanding %d; want all received and only the one-byte datagram bad",
				tc.name, len(ns), c.Counters, c.Outstanding())
		}
	}
}

// The same app and request count through the sim driver against a
// simhost node and through the socket driver against daemon.ListenEngine
// on loopback end in the same books.
func TestSubstratesAgree(t *testing.T) {
	const keys, stored = 64, 48 // a quarter of the GETs miss
	store := kvs.NewShardedStore(2, 0)
	for i := 0; i < stored; i++ {
		store.Set(fmt.Sprintf("key-%d", i), kvs.Entry{Value: []byte("value")})
	}
	app := func() *KVS {
		i := 0
		return &KVS{Key: func() string { i++; return fmt.Sprintf("key-%d", i%keys) }}
	}

	eng, err := daemon.ListenEngine(daemon.EngineOptions{Addr: "127.0.0.1:0"}, kvs.NewHandler(store),
		dataplane.Config{Name: "trafficgen-test", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Close()
	d, err := Dial(eng.LocalAddr().String(), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	live := NewClient(app(), d.Send)
	onSockets := Report{Proto: "kvs", Target: eng.LocalAddr().String()}
	if err := d.Run(live, Profile{Hold(2000, 150*time.Millisecond)}, &onSockets, t.Logf); err != nil {
		t.Fatal(err)
	}
	if onSockets.Sent == 0 || onSockets.Sent > 300 {
		t.Fatalf("socket driver sent %d of the 300 due", onSockets.Sent)
	}

	sim := simnet.New(1)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	simhost.NewNode(net, "server", kvs.NewHandler(store), 0, nil)
	simulated := simhost.NewClient(net, "client", "server", app())
	for i := uint64(0); i < onSockets.Sent; i++ {
		sim.Schedule(time.Duration(i)*500*time.Microsecond, func() { simulated.Submit(nil) })
	}
	sim.Run()
	var onSim Report
	onSim.Measure(simulated.Client, time.Duration(sim.Now()))

	if onSim.Sent != onSockets.Sent || onSim.Answered != onSockets.Answered ||
		onSim.Bad != onSockets.Bad || onSim.Outstanding != onSockets.Outstanding {
		t.Errorf("reports disagree:\n sim     %+v\n sockets %+v", onSim, onSockets)
	}
	if onSim.Answered != onSim.Sent || onSim.Bad != 0 || onSim.Outstanding != 0 {
		t.Errorf("want everything answered: %+v", onSim)
	}
	if a, b := simulated.Counters.Get("hit"), live.Counters.Get("hit"); a != b || a == 0 || a == onSim.Answered {
		t.Errorf("hits: %d simulated, %d on sockets, of %d answered; want equal, and some misses", a, b, onSim.Answered)
	}
}
