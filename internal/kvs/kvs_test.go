package kvs_test

// The KVS case study end to end (§3.1): the handler and store of this
// package on the host, nictier's LaKe table on the card, served by the
// simulated card-and-host of internal/simhost under the paper's cost
// model.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/fpga"
	"incod/internal/kvs"
	"incod/internal/memcache"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

// bed is client -> card-and-host on a 10GE network.
type bed struct {
	sim    *simnet.Simulator
	net    *simnet.Network
	app    *trafficgen.KVS
	client *simhost.Client
	probes int
	*simhost.Stack
}

// served splits the node's engine counts into the datagrams the card's
// fast path consumed and those that reached the host handler.
func (b *bed) served() (fast, host uint64) {
	st := b.Stats()
	return st.Offloaded, st.Handled - st.Offloaded
}

// fast is the count of datagrams the card's fast path consumed.
func (b *bed) fast() uint64 { return b.Stats().Offloaded }

// parkedLaKeWatts is what a parked LaKe card draws under the default
// strategy: module inactive, memories in reset, clock gated.
func parkedLaKeWatts() float64 {
	c := fpga.NewBoard(fpga.LaKeDesign)
	c.SetModuleActive(false)
	c.SetMemoryReset(true)
	c.SetClockGating(true)
	return c.CardWatts(0)
}

// rig builds a bed under model m (nil = the default LaKe model). The
// service starts on the host.
func rig(seed int64, m *simhost.Model) *bed {
	if m == nil {
		m = simhost.LaKe()
	}
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	lake := simhost.NewStack(net, "lake", protocol.KVS, protocol.Options{}, m)
	app := &trafficgen.KVS{Key: func() string { return "key" }}
	return &bed{sim: sim, net: net, app: app, client: simhost.NewClient(net, "client", "lake", app), Stack: lake}
}

func (b *bed) shift(t *testing.T, to core.Placement) {
	t.Helper()
	if err := b.Service.Shift(to); err != nil {
		t.Fatalf("shift to %s: %v", to, err)
	}
}

// drive runs the client at kpps for d, then lets the last replies land.
func (b *bed) drive(kpps float64, d time.Duration) {
	b.client.Start(kpps)
	b.sim.RunFor(d)
	b.client.Stop()
	b.sim.RunFor(10 * time.Millisecond)
}

// probe delivers one raw request from a node of its own and returns the
// reply, if any.
func (b *bed) probe(payload []byte) []byte {
	var reply []byte
	b.probes++
	src := simnet.Addr(fmt.Sprintf("probe-%d", b.probes))
	b.net.Attach(&replyNode{src, func(p *simnet.Packet) { reply = p.Payload }})
	b.Receive(&simnet.Packet{Src: src, Dst: "lake", SrcPort: 9, DstPort: 11211, Payload: payload})
	b.sim.RunFor(time.Millisecond)
	return reply
}

// replyNode is a simnet node that hands every packet it receives to fn.
type replyNode struct {
	addr simnet.Addr
	fn   func(*simnet.Packet)
}

func (r *replyNode) Addr() simnet.Addr          { return r.addr }
func (r *replyNode) Receive(pkt *simnet.Packet) { r.fn(pkt) }

// framed wraps an ASCII request body in a UDP frame.
func framed(body string) []byte {
	return append([]byte{0, 1, 0, 0, 0, 1, 0, 0}, body...)
}

func TestLaKeLatencyAnchors(t *testing.T) {
	b := rig(7, nil)
	b.Preload(100, 1)
	b.shift(t, core.Network)
	i := 0
	b.app.Key = func() string { i++; return fmt.Sprintf("key-%d", i%100) }

	// The first hit on each key comes from the off-chip layer (~1.6µs),
	// every later one from the on-chip layer (<= 1.4µs).
	b.drive(100, 500*time.Microsecond) // ~50 requests, 100 keys: no repeats
	if n, lo := b.fast(), b.CardLatency.Quantile(0); n == 0 || n > 100 || lo < 1500*time.Nanosecond {
		t.Fatalf("first touches: %d hits, fastest %v, want <= 100 hits all off-chip, above the 1.4µs on-chip bound", n, lo)
	}
	b.drive(100, 3*time.Millisecond) // every key touched by now
	b.CardLatency.Reset()
	b.drive(100, 200*time.Millisecond)
	if hi := b.CardLatency.Max(); hi > 1400*time.Nanosecond {
		t.Errorf("on-chip hits reach %v, want <= 1.4µs", hi)
	}
	if _, host := b.served(); host != 0 {
		t.Errorf("host handled %d requests while the card held every key", host)
	}

	// §5.3: a request the card cannot serve costs the ~13.5µs software
	// path, more than an order of magnitude over a hit.
	b.app.Key = func() string { return "absent" }
	b.drive(100, 10*time.Millisecond)
	hit, miss := b.CardLatency.Median(), b.HostLatency.Median()
	if miss < 12*time.Microsecond || miss > 16*time.Microsecond {
		t.Errorf("miss median = %v, want ~13.5µs", miss)
	}
	if ratio := float64(miss) / float64(hit); ratio < 5 {
		t.Errorf("miss/hit latency ratio = %.1f, want ~10x", ratio)
	}
}

func TestLaKeSetWriteThrough(t *testing.T) {
	b := rig(7, nil)
	b.shift(t, core.Network)
	if reply := b.probe(framed("set w 0 0 1\r\nv\r\n")); len(reply) < 8 || string(reply[8:]) != "STORED\r\n" {
		t.Fatalf("set through the card answered %q", reply)
	}
	if b.Tier.Counters().Get("write_through") == 0 {
		t.Fatal("no sets classified by the card")
	}
	if _, ok := b.Store.GetString("w", 0); !ok {
		t.Error("write-through did not reach the host store")
	}
	// The written value is served from the card from then on.
	fast, _ := b.served()
	b.app.Key = func() string { return "w" }
	b.drive(10, 5*time.Millisecond)
	if now, _ := b.served(); now == fast {
		t.Error("a get after the set should hit the card")
	}
}

func TestLaKeDeleteInvalidates(t *testing.T) {
	b := rig(7, nil)
	b.Store.Set("d", kvs.Entry{Value: []byte("v")})
	b.shift(t, core.Network)
	if got := b.Tier.Counters().Get("warmed_entries"); got != 1 {
		t.Fatalf("the warm-up moved %d entries onto the card, want 1", got)
	}
	fast := b.fast()
	if reply := b.probe(framed("get d\r\n")); len(reply) == 0 || b.fast() != fast+1 {
		t.Fatal("the card did not serve the warmed entry")
	}
	// Delete through the data path.
	b.probe(framed("delete d\r\n"))
	hits := b.Tier.Counters().Get("l2_hit")
	b.probe(framed("get d\r\n"))
	if b.Tier.Counters().Get("l2_hit") != hits {
		t.Error("delete should invalidate the card's copy")
	}
	if _, ok := b.Store.GetString("d", 0); ok {
		t.Error("delete should reach the host store")
	}
}

func TestLaKeInactivePassesToSoftware(t *testing.T) {
	b := rig(7, nil)
	b.Store.Set("key-1", kvs.Entry{Value: []byte("v")})
	b.app.Key = func() string { return "key-1" }
	b.drive(20, 50*time.Millisecond)

	if fast, host := b.served(); fast != 0 || host == 0 {
		t.Errorf("parked card served %d, host %d; everything must pass to the host", fast, host)
	}
	if got := b.client.Counters.Get("hit"); got == 0 || got != b.client.Counters.Get("recv") {
		t.Errorf("client saw %d hits of %d responses via the software path", got, b.client.Counters.Get("recv"))
	}
	// Latency through software is the ~13.5µs class, not the ~1.4µs
	// class, and pays the card's 600ns store-and-forward hop on top.
	if med := b.client.Latency.Median(); med < 10*time.Microsecond {
		t.Errorf("software-path median = %v, want > 10µs", med)
	}
	if extra := b.client.Latency.Mean() - b.HostLatency.Mean(); extra < 600*time.Nanosecond {
		t.Errorf("client sees only %v beyond the host's service time, want the 600ns NIC hop and the wire", extra)
	}
}

func TestDeactivateFlushesAndActivateWarmsAgain(t *testing.T) {
	b := rig(7, nil)
	b.Store.Set("key-1", kvs.Entry{Value: []byte("v")})
	b.app.Key = func() string { return "key-1" }
	b.shift(t, core.Network)
	b.client.Start(20)
	b.sim.RunFor(20 * time.Millisecond)
	if b.fast() == 0 {
		t.Fatal("the card did not warm")
	}
	b.shift(t, core.Host)
	if got := b.CardWatts(); got != parkedLaKeWatts() {
		t.Errorf("parked card draws %v W, want %v (module off, memories in reset, clock gated)", got, parkedLaKeWatts())
	}
	b.shift(t, core.Network)
	if got := b.Tier.Counters().Get("warmed_entries"); got != 1 {
		t.Errorf("the shift back installed %d entries, want 1: parking (memories in reset) must lose the card's state", got)
	}
	fast := b.fast()
	b.sim.RunFor(50 * time.Millisecond)
	b.client.Stop()
	b.sim.RunFor(10 * time.Millisecond)
	if b.fast() == fast {
		t.Error("the card should warm and serve again after the shift back")
	}
	if lit := fpga.NewBoard(fpga.LaKeDesign).CardWatts(0); b.CardWatts() < lit {
		t.Errorf("active card draws %v W, below the %v W of an ungated LaKe: activation should release reset and gating", b.CardWatts(), lit)
	}
}

func TestCombinedPowerMatchesPaperShape(t *testing.T) {
	b := rig(7, nil)
	b.Store.Set("key-1", kvs.Entry{Value: []byte("v")})
	b.shift(t, core.Network)
	// Idle: 39 (server) + ~20 (card) = ~59 W (§4.2).
	idle := b.PowerWatts(b.sim.Now())
	if idle < 58 || idle > 61 {
		t.Errorf("idle combined power = %v W, want ~59", idle)
	}
	// Under load the server stays near idle (all hits in hardware), so
	// combined power barely moves (§4.2, Figure 3a).
	b.app.Key = func() string { return "key-1" }
	b.client.Start(500)
	b.sim.RunFor(300 * time.Millisecond)
	loaded := b.PowerWatts(b.sim.Now())
	b.client.Stop()
	if loaded > idle+3 {
		t.Errorf("combined power under load = %v W, want close to idle %v (hits stay in hardware)", loaded, idle)
	}
	// Pure software at the same rate would cost far more.
	if sw := power.MemcachedMellanox.Power(500); sw < loaded+20 {
		t.Errorf("software at 500kpps = %v W should far exceed LaKe's %v W", sw, loaded)
	}
}

func TestSoftServerDirectService(t *testing.T) {
	b := rig(3, nil)
	b.Store.Set("k", kvs.Entry{Value: []byte("v")})
	b.app.Key = func() string { return "k" }
	b.client.Start(50)
	// Run past the 1s averaging window so the measured rate converges
	// (§4.1: "average throughput was measured at the granularity of a
	// second").
	b.sim.RunFor(1200 * time.Millisecond)
	if b.HostRateKpps() < 40 {
		t.Errorf("host rate = %v kpps, want ~50", b.HostRateKpps())
	}
	b.client.Stop()
	b.sim.RunFor(10 * time.Millisecond)
	recv := b.client.Counters.Get("recv")
	if recv == 0 || b.client.Counters.Get("hit") != recv {
		t.Fatalf("recv=%d hit=%d", recv, b.client.Counters.Get("hit"))
	}
	if med := b.client.Latency.Median(); med < 12*time.Microsecond || med > 18*time.Microsecond {
		t.Errorf("software median latency = %v, want ~13.5µs", med)
	}
}

func TestSoftServerShedsOverload(t *testing.T) {
	m := simhost.LaKe()
	m.Curve.PeakKpps = 20 // tiny server for the test
	b := rig(3, m)
	b.app.Key = func() string { return "k" }
	b.client.Start(200) // 10x peak
	b.sim.RunFor(300 * time.Millisecond)
	b.client.Stop()
	if shed, _ := b.Dropped(); shed == 0 {
		t.Error("overloaded server should shed load")
	}
	if b.HostUtilization() < 0.9 {
		t.Errorf("utilization = %v, want saturated", b.HostUtilization())
	}
}

// What the card cannot parse is the host's to answer, parked or lit, and
// the host answers ERROR.
func TestSoftServerErrorPaths(t *testing.T) {
	b := rig(3, nil)
	for _, where := range []core.Placement{core.Host, core.Network} {
		b.shift(t, where)
		for _, req := range [][]byte{{1}, framed("bogus\r\n")} {
			fast, host := b.served()
			if reply := b.probe(req); !bytes.HasSuffix(reply, []byte("ERROR\r\n")) {
				t.Errorf("%s: reply to %q = %q, want ERROR", where, req, reply)
			}
			if f, h := b.served(); f != fast || h != host+1 {
				t.Errorf("%s: %q was not handed to the host", where, req)
			}
		}
	}
}

func TestLaKePowerStates(t *testing.T) {
	b := rig(7, nil)
	parked := b.CardWatts()
	b.shift(t, core.Network)
	active := b.CardWatts()
	if parked >= active {
		t.Errorf("parked power %v W should be below active %v W", parked, active)
	}
	// §9.2: the parked card still costs a few watts more than a bare NIC
	// (7 W card base).
	if parked < 10 || parked > 16 {
		t.Errorf("parked power = %v W, want ~12-15", parked)
	}
}

// A multi-key get is beyond the card's pipeline: it passes to the host,
// which answers every key it has.
func TestLaKeMultiGet(t *testing.T) {
	b := rig(7, nil)
	for _, k := range []string{"m1", "m2", "m3"} {
		b.Store.Set(k, kvs.Entry{Value: []byte("v-" + k)})
	}
	b.shift(t, core.Network)
	for round := uint64(1); round <= 2; round++ {
		reply := b.probe(framed("get m1 m2 missing m3\r\n"))
		if len(reply) < memcache.FrameHeaderSize {
			t.Fatal("no reply")
		}
		resp, err := memcache.ParseResponse(reply[memcache.FrameHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Items) != 3 {
			t.Fatalf("items = %d, want 3 (missing key omitted)", len(resp.Items))
		}
		if got := b.Tier.Counters().Get("passthrough"); got != round {
			t.Errorf("card passed %d multi-gets up, want %d", got, round)
		}
		if fast, host := b.served(); fast != 0 || host != round {
			t.Errorf("served fast=%d host=%d, want 0 and %d", fast, host, round)
		}
	}
}
