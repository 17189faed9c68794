// Package simhost is the simulated serving node: the live handlers and
// offload tiers of the daemons — kvs.Handler, dns.Handler, the paxos
// roles, nictier's fast paths — served by the daemons' own
// dataplane.Engine on simnet's virtual clock under a real
// nictier.Service. It is the second substrate of the one stack: the
// chaos harness runs it bare, and the paper figures attach a Model to
// it, the calibrated cost of the card and host it stands for. KVS, DNS
// and Paxos (paxos.go) are the three stacks built on it; no protocol
// role has a second, sim-only implementation.
package simhost

import (
	"net/netip"
	"time"

	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// Node is a dataplane engine (dataplane.NewDriven), a conn that carries
// its simnet deliveries, and optionally a Model. Each Turn of the engine
// is the batched engine's own: installed fast path first, host handler
// for the rest, replies back to their sources. It implements
// nictier.Dataplane, so a real nictier.Service shifts placement on it.
//
// The window is when the node turns its engine: at zero, on every
// delivery; otherwise once the window has passed since the first unread
// delivery, and then until all are read, up to 32 datagrams a turn.
// Barrier turns it at once: the pre-warm fence a shift needs.
//
// With a Model the node is the paper's card-and-host: what the turns
// send — replies and a Paxos role's fan-out through Sender — is delayed
// by the slowest service time of whoever served their datagrams,
// card-observed and host-served rates are metered on the virtual clock,
// the host sheds load beyond its peak, an fpga.Board follows the
// placement and the idle strategy, and the node is a
// telemetry.PowerSource. Without one it costs nothing and answers at
// once. Everything runs inside the single-threaded simulation loop.
type Node struct {
	sim  *simnet.Simulator
	net  *simnet.Network
	addr simnet.Addr

	e        *dataplane.Engine
	conn     *conn
	lit      bool // a fast path is installed
	window   time.Duration
	armed    bool // a turn is scheduled
	oversize uint64

	// outbox holds what the datagrams being handled send until their
	// service time is known.
	handling bool
	outbox   []*simnet.Packet

	// The cost model and what it drives; all unused when m is nil.
	m         *Model
	board     *fpga.Board
	cardRate  *telemetry.AtomicRateMeter // what the card's classifier sees
	hostRate  *telemetry.AtomicRateMeter // what reaches the host software
	haltUntil simnet.Time                // end of a partial-reconfiguration halt
	shed      uint64
	halted    uint64

	// CardLatency and HostLatency record the modeled service time of
	// every request the card and the host served.
	CardLatency *telemetry.Histogram
	HostLatency *telemetry.Histogram
}

var _ simnet.Node = (*Node)(nil)
var _ nictier.Dataplane = (*Node)(nil)
var _ telemetry.PowerSource = (*Node)(nil)

// NewNode attaches a node at addr serving host, turning its engine on
// every delivery or once per window, under cost model m (nil = none).
// The card starts parked: the host serves everything until a fast path
// is installed.
func NewNode(net *simnet.Network, addr simnet.Addr, host dataplane.Handler, window time.Duration, m *Model) *Node {
	n := &Node{sim: net.Sim(), net: net, addr: addr, window: window, m: m}
	n.conn = &conn{n: n, addrs: map[peer]netip.AddrPort{}, peers: map[netip.AddrPort]peer{}}
	n.e = dataplane.NewDriven(n.conn, host, dataplane.Config{Name: string(addr), MaxDatagram: MaxDatagram})
	if m != nil {
		n.cardRate = telemetry.NewAtomicRateMeter(10*time.Millisecond, 100)
		n.hostRate = telemetry.NewAtomicRateMeter(10*time.Millisecond, 100)
		n.CardLatency = telemetry.NewHistogram()
		n.HostLatency = telemetry.NewHistogram()
		if m.Design.Name != "" { // else a server with a plain NIC: no card
			n.board = fpga.NewBoard(m.Design)
			n.park()
			n.haltUntil = 0 // booted parked, not reconfigured into it
		}
	}
	net.Attach(n)
	return n
}

// Addr implements simnet.Node.
func (n *Node) Addr() simnet.Addr { return n.addr }

// Stats is the engine's snapshot, with the datagrams the node dropped
// for being longer than MaxDatagram counted in Dropped.
func (n *Node) Stats() dataplane.Stats {
	st := n.e.Snapshot()
	st.Dropped += n.oversize
	return st
}

// SetFastPath implements nictier.Dataplane. The simulation loop is
// single-threaded, so installation is trivially atomic with dispatch.
func (n *Node) SetFastPath(fp dataplane.FastPath) {
	if fp == nil {
		n.ClearFastPath()
		return
	}
	n.e.SetFastPath(fp)
	n.lit = true
	if n.board != nil {
		n.light()
	}
}

// ClearFastPath implements nictier.Dataplane. No call can be inside the
// tier when it returns — dispatch and this call share the event loop.
func (n *Node) ClearFastPath() {
	n.e.ClearFastPath()
	n.lit = false
	if n.board != nil {
		n.park()
	}
}

// Barrier implements nictier.Dataplane: every datagram delivered before
// the call has fully landed once the engine has read them all.
func (n *Node) Barrier() { n.flush() }

// Receive implements simnet.Node.
func (n *Node) Receive(pkt *simnet.Packet) {
	if n.m == nil {
		n.deliver(pkt)
		return
	}
	if n.sim.Now() < n.haltUntil {
		// Partial reconfiguration halts the whole card (§9.2).
		n.halted++
		return
	}
	metered := n.m.metered(pkt.Payload)
	if metered {
		n.count(n.cardRate)
	}
	if n.lit {
		n.deliver(pkt)
		return
	}
	// Module parked: the card is a plain NIC in front of the host, which
	// saturates at its peak and sheds the excess (§4.2).
	n.sim.Schedule(n.m.Passthrough, func() {
		peak := n.m.Curve.PeakKpps
		if rate := n.HostRateKpps(); metered && rate > peak && peak > 0 && n.sim.Rand().Float64() > peak/rate {
			n.shed++
			return
		}
		n.deliver(pkt)
	})
}

// count meters one request on m. The meter's window is worked out by its
// reader from the totals seen at earlier looks, so the node looks before
// it adds — the buckets that ended since the last request close on a
// total without this one — and again after, so that no later look finds
// an event it cannot date. That reproduces a ring of per-bucket counts
// on the virtual clock event for event, which the figures depend on: the
// ρ that queueing stretches host latency by is this reading.
func (n *Node) count(m *telemetry.AtomicRateMeter) {
	now := time.Duration(n.sim.Now())
	m.Rate(now)
	m.Add(1)
	m.Rate(now)
}

// deliver puts pkt on the conn and turns the engine now, or when the
// window closes.
func (n *Node) deliver(pkt *simnet.Packet) {
	if len(pkt.Payload) > MaxDatagram {
		n.oversize++
		return
	}
	n.conn.rx = append(n.conn.rx, pkt)
	if n.window <= 0 {
		n.flush()
		return
	}
	if !n.armed {
		n.armed = true
		n.sim.Schedule(n.window, n.flush)
	}
}

// flush turns the engine until it has read every delivery, drawing each
// datagram's service time in arrival order; what the turns send goes out
// when the slowest is done.
func (n *Node) flush() {
	n.armed = false
	var after time.Duration
	n.handling = true
	for n.conn.head < len(n.conn.rx) {
		batch, _ := n.e.Turn() // a read of a conn with datagrams waiting cannot fail
		if n.m != nil {
			for _, it := range batch {
				after = max(after, n.serviceTime(it.In, it.Served))
			}
		}
	}
	n.handling = false
	n.release(after)
}

// release sends the outbox once the service time after has elapsed.
func (n *Node) release(after time.Duration) {
	if len(n.outbox) == 0 {
		return
	}
	if n.m == nil {
		for _, pkt := range n.outbox {
			n.net.Send(pkt)
		}
		n.outbox = n.outbox[:0]
		return
	}
	out := n.outbox
	n.outbox = nil
	n.sim.Schedule(after, func() {
		for _, pkt := range out {
			n.net.Send(pkt)
		}
	})
}

// Sender returns the node's fan-out for a Paxos role: a message sent
// while the node handles a datagram leaves with that datagram's reply,
// after its service time; one sent at any other moment (a learner's gap
// scan) leaves at once. Each message is freshly encoded.
func (n *Node) Sender() paxos.Sender {
	return func(to string, m paxos.Msg) {
		pkt := &simnet.Packet{Src: n.addr, Dst: simnet.Addr(to), Payload: paxos.Encode(m)}
		if n.handling {
			n.outbox = append(n.outbox, pkt)
			return
		}
		n.net.Send(pkt)
	}
}
