package dns_test

// The DNS case study end to end (§3.3): the handler and zone of this
// package on the host, nictier's Emu-DNS answer table on the card, served
// by the simulated card-and-host of internal/simhost under the paper's
// cost model.

import (
	"strings"
	"testing"
	"time"

	"incod/internal/core"
	"incod/internal/dns"
	"incod/internal/protocol"
	"incod/internal/simhost"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

// bed is client -> card-and-host on a 10GE network.
type bed struct {
	sim    *simnet.Simulator
	net    *simnet.Network
	app    *trafficgen.DNS
	client *simhost.Client
	zone   *dns.Zone
	*simhost.Stack
}

// served splits the node's engine counts into the datagrams the card's
// fast path consumed and those that reached the host handler.
func (b *bed) served() (fast, host uint64) {
	st := b.Stats()
	return st.Offloaded, st.Handled - st.Offloaded
}

// dnsRig builds a bed serving 100 sequential names, with the service
// where asked.
func dnsRig(t *testing.T, seed int64, where core.Placement) *bed {
	t.Helper()
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, simnet.TenGigE)
	zone := dns.NewZone()
	zone.PopulateSequential(100)
	b := &bed{sim: sim, net: net, zone: zone, Stack: simhost.NewStack(net, "emu", protocol.DNS, protocol.Options{Zone: zone}, simhost.EmuDNS())}
	i := 0
	b.app = &trafficgen.DNS{Name: func() string { i++; return dns.SequentialName(i % 100) }}
	b.client = simhost.NewClient(net, "client", "emu", b.app)
	b.shift(t, where)
	return b
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

func TestEmuServesFromHardware(t *testing.T) {
	b := dnsRig(t, 11, core.Network)
	b.drive(100, 100*time.Millisecond)

	fast, host := b.served()
	if fast == 0 {
		t.Fatal("hardware served nothing")
	}
	if host != 0 {
		t.Errorf("software saw %d queries while hardware is active", host)
	}
	if got := b.client.Counters.Get("resolved"); got != b.client.Counters.Get("recv") {
		t.Errorf("resolved %d of %d", got, b.client.Counters.Get("recv"))
	}
	// Hardware latency ~1.3µs.
	if med := b.client.Latency.Median(); med > 3*time.Microsecond {
		t.Errorf("hardware median = %v, want ~1.3µs + wire", med)
	}
}

func TestEmuNXDomain(t *testing.T) {
	b := dnsRig(t, 11, core.Network)
	b.app.Name = func() string { return "nonexistent.example.com" }
	b.drive(10, 20*time.Millisecond)
	if b.client.Counters.Get("nxdomain") == 0 {
		t.Error("client should see NXDOMAIN for unknown names")
	}
	if b.Tier.Counters().Get("nxdomain") == 0 {
		t.Error("hardware should count NXDOMAIN")
	}
	if _, host := b.served(); host != 0 {
		t.Errorf("%d NXDOMAINs came from the host, want all from the card", host)
	}
}

// Names deeper than the pipeline parses, and questions it does not
// support, are the host software's (§9.2's "worst case ... treated as
// iterative requests").
func TestEmuDeepNamesGoToSoftware(t *testing.T) {
	b := dnsRig(t, 11, core.Host)
	deep := strings.Repeat("x.", dns.MaxLabels+2) + "example.com"
	b.zone.Add(deep, [4]byte{10, 0, 0, 1}, 60)
	b.shift(t, core.Network)
	b.app.Name = func() string { return deep }
	b.drive(10, 50*time.Millisecond)
	if fast, host := b.served(); fast != 0 || host == 0 {
		t.Fatalf("deep names: card served %d, host %d; want all on the host", fast, host)
	}
	if b.client.Counters.Get("resolved") == 0 {
		t.Error("software should still resolve deep names")
	}
	// Deep queries pay the software latency.
	if med := b.client.Latency.Median(); med < 50*time.Microsecond {
		t.Errorf("deep-name median = %v, want software-class latency", med)
	}

	// A non-A question for a name the card holds.
	q := dns.NewQuery(7, dns.SequentialName(1))
	q.QType = 28 // AAAA
	payload, err := dns.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	b.net.Attach(&replyNode{"probe", func(p *simnet.Packet) { reply = p.Payload }})
	_, host := b.served()
	b.Receive(&simnet.Packet{Src: "probe", Dst: "emu", SrcPort: 41000, DstPort: 53, Payload: payload})
	b.sim.RunFor(time.Millisecond)
	if _, now := b.served(); now != host+1 {
		t.Error("a non-A question should be punted to the host")
	}
	if m, err := dns.Decode(reply, 0); err != nil || m.RCode != dns.RCodeNotImpl {
		t.Errorf("the host should answer the AAAA question NOTIMPL, got %+v (%v)", m, err)
	}
}

func TestSoftwareVsHardwareLatencyX70(t *testing.T) {
	hw := dnsRig(t, 11, core.Network)
	hw.drive(100, 100*time.Millisecond)
	sw := dnsRig(t, 12, core.Host)
	sw.drive(100, 100*time.Millisecond)

	// §3.3: ~x70 service latency improvement.
	if ratio := float64(sw.HostLatency.Median()) / float64(hw.CardLatency.Median()); ratio < 60 || ratio > 80 {
		t.Errorf("software/hardware service time ratio = %.0f, want ~70", ratio)
	}
	// Wire time compresses the end-to-end ratio slightly; accept 30-90.
	swMed, hwMed := sw.client.Latency.Median(), hw.client.Latency.Median()
	if ratio := float64(swMed) / float64(hwMed); ratio < 30 || ratio > 90 {
		t.Errorf("software/hardware latency ratio = %.0f (sw=%v hw=%v), want ~70", ratio, swMed, hwMed)
	}
}

func TestEmuInactivePassthrough(t *testing.T) {
	b := dnsRig(t, 11, core.Host)
	b.app.Name = func() string { return dns.SequentialName(1) }
	b.drive(20, 50*time.Millisecond)
	if fast, host := b.served(); fast != 0 || host == 0 {
		t.Errorf("parked card served %d, host %d; software must serve everything", fast, host)
	}
	if b.client.Counters.Get("resolved") == 0 {
		t.Error("client got no resolutions via software")
	}
	if extra := b.client.Latency.Mean() - b.HostLatency.Mean(); extra < 600*time.Nanosecond {
		t.Errorf("client sees only %v beyond the host's service time, want the 600ns NIC hop and the wire", extra)
	}
}

func TestEmuPowerShape(t *testing.T) {
	b := dnsRig(t, 11, core.Network)
	// §4.4: Emu DNS totals ~47.5 W idle and stays under ~48 W loaded.
	idle := b.PowerWatts(b.sim.Now())
	if idle < 47 || idle > 48.2 {
		t.Errorf("idle combined = %v W, want ~47.5", idle)
	}
	b.client.Start(900)
	b.sim.RunFor(1200 * time.Millisecond)
	loaded := b.PowerWatts(b.sim.Now())
	b.client.Stop()
	if loaded >= 48.5 {
		t.Errorf("loaded combined = %v W, want < 48.5", loaded)
	}
}

// What is not DNS is not the card's: it passes to the host, which drops
// it unanswered.
func TestEmuNonDNSPassthrough(t *testing.T) {
	b := dnsRig(t, 11, core.Network)
	b.Receive(&simnet.Packet{Src: "client", Dst: "emu", SrcPort: 41000, DstPort: 9999, Payload: []byte("data")})
	b.sim.RunFor(time.Millisecond)
	if got := b.Tier.Counters().Get("passthrough"); got != 1 {
		t.Errorf("card passthrough = %d, want 1", got)
	}
	if fast, host := b.served(); fast != 0 || host != 1 {
		t.Errorf("served fast=%d host=%d, want the host to receive the packet", fast, host)
	}
	if got := b.client.Counters.Get("recv") + b.client.Counters.Get("bad"); got != 0 {
		t.Errorf("client received %d replies to a non-DNS datagram", got)
	}
}

// The card answers from a copy of the zone taken at the shift: a record
// added afterwards is the host's until the next sync.
func TestSyncZoneCopies(t *testing.T) {
	b := dnsRig(t, 11, core.Network)
	b.zone.Add("new.example.com", [4]byte{10, 9, 8, 7}, 60)
	// Not yet synced: hardware answers NXDOMAIN.
	b.client.Submit([]byte("new.example.com"))
	b.sim.RunFor(5 * time.Millisecond)
	if b.client.Counters.Get("nxdomain") != 1 {
		t.Fatalf("expected NXDOMAIN before sync, counters: %v", b.client.Counters)
	}
	b.shift(t, core.Host)
	b.shift(t, core.Network)
	b.client.Submit([]byte("new.example.com"))
	b.sim.RunFor(5 * time.Millisecond)
	if b.client.Counters.Get("resolved") != 1 {
		t.Error("after the sync the hardware should resolve the new name")
	}
	if _, host := b.served(); host != 0 {
		t.Errorf("host served %d queries; both answers should be the card's", host)
	}
}

// replyNode is a simnet node that hands every packet it receives to fn.
type replyNode struct {
	addr simnet.Addr
	fn   func(*simnet.Packet)
}

func (r *replyNode) Addr() simnet.Addr          { return r.addr }
func (r *replyNode) Receive(pkt *simnet.Packet) { r.fn(pkt) }
