// Package simhost is the simulated serving node: the live handlers and
// offload tiers of the daemons — kvs.Handler, dns.Handler, the paxos
// roles, nictier's fast paths — served on simnet's virtual clock under a
// real nictier.Service. It is the second substrate of the one stack: the
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

// Node is a serving engine on the simulated network: it receives
// datagrams as a simnet.Node, dispatches them through the same core the
// live dataplane engine uses — installed fast path first, host handler
// for everything unserved — and sends non-empty replies back to the
// packet source. It implements nictier.Dataplane, so a real
// nictier.Service drives placement shifts on it unmodified.
//
// With a zero window every datagram is handled at delivery time (the
// single-datagram path). With a nonzero window, deliveries queue and
// flush together after the window elapses, exercising the batched
// TryHandleBatch/HandleBatch path; Barrier flushes synchronously, which
// is exactly the pre-warm fence the shift sequence needs.
//
// With a Model the node is the paper's card-and-host: what handling a
// datagram sends — the reply and a Paxos role's fan-out through Sender —
// is delayed by the service time of whoever served it, card-observed and
// host-served rates are metered on the virtual clock, the host sheds
// load beyond its peak, an fpga.Board follows the placement and the idle
// strategy, and the node is a telemetry.PowerSource. Without one it
// costs nothing and answers at once.
//
// Everything runs inside the single-threaded simulation loop, so no
// locking is needed — but replies must be copied before Send, because
// handlers reuse their scratch buffers while simnet defers delivery.
type Node struct {
	sim  *simnet.Simulator
	net  *simnet.Network
	addr simnet.Addr

	disp   dataplane.Dispatcher
	fp     dataplane.FastPath
	window time.Duration

	pending []*simnet.Packet
	armed   bool // a flush is scheduled

	// outbox holds what the datagrams being handled send until their
	// service time is known.
	handling bool
	outbox   []*simnet.Packet

	scratch    []byte
	items      []dataplane.BatchItem
	itemPtrs   []*dataplane.BatchItem
	hostPtrs   []*dataplane.BatchItem
	scratches  [][]byte
	fastServed uint64
	hostServed uint64

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

// NewNode attaches a node at addr serving host, with deliveries batched
// over window (0 = single-datagram dispatch), under cost model m (nil =
// none). The card starts parked: the host serves everything until a
// fast path is installed.
func NewNode(net *simnet.Network, addr simnet.Addr, host dataplane.Handler, window time.Duration, m *Model) *Node {
	n := &Node{sim: net.Sim(), net: net, addr: addr, disp: dataplane.NewDispatcher(host), window: window, m: m}
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

// Served reports how many datagrams the fast path consumed and how many
// reached the host handler.
func (n *Node) Served() (fast, host uint64) { return n.fastServed, n.hostServed }

// SetFastPath implements nictier.Dataplane. The simulation loop is
// single-threaded, so installation is trivially atomic with dispatch.
func (n *Node) SetFastPath(fp dataplane.FastPath) {
	if fp == nil {
		n.ClearFastPath()
		return
	}
	n.fp = fp
	if n.board != nil {
		n.light()
	}
}

// ClearFastPath implements nictier.Dataplane. No call can be inside the
// tier when it returns — dispatch and this call share the event loop.
func (n *Node) ClearFastPath() {
	n.fp = nil
	if n.board != nil {
		n.park()
	}
}

// Barrier implements nictier.Dataplane: every datagram delivered before
// the call has fully landed once the pending batch is flushed.
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
	if n.fp != nil {
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

// deliver handles pkt now, or queues it for the window's flush.
func (n *Node) deliver(pkt *simnet.Packet) {
	if n.window <= 0 {
		n.handling = true
		out, offloaded := n.disp.One(n.fp, pkt.Payload, netip.AddrPort{}, &n.scratch)
		n.handling = false
		n.release(n.reply(pkt, out, offloaded))
		return
	}
	n.pending = append(n.pending, pkt)
	if !n.armed {
		n.armed = true
		n.sim.Schedule(n.window, n.flush)
	}
}

// flush runs the batched dispatch over every pending delivery; the
// batch's fan-out and then its replies, in arrival order, go out when its
// slowest datagram is done.
func (n *Node) flush() {
	n.armed = false
	batch := n.pending
	n.pending = n.pending[:0]
	if len(batch) == 0 {
		return
	}
	c := len(batch)
	if cap(n.items) < c {
		n.items = make([]dataplane.BatchItem, c)
		n.itemPtrs = make([]*dataplane.BatchItem, c)
		n.scratches = make([][]byte, c)
	}
	items, ptrs := n.items[:c], n.itemPtrs[:c]
	for i, pkt := range batch {
		items[i] = dataplane.BatchItem{In: pkt.Payload, Scratch: &n.scratches[i]}
		ptrs[i] = &items[i]
	}
	n.handling = true
	n.hostPtrs = n.disp.Batch(n.fp, ptrs, n.hostPtrs)
	n.handling = false
	var after time.Duration
	for i, pkt := range batch {
		after = max(after, n.reply(pkt, items[i].Out, items[i].Served))
	}
	n.release(after)
}

// reply accounts one dispatched request, queues out (if any) for its
// source and returns the server's modeled service time. out is copied:
// handlers reuse scratch, delivery is deferred.
func (n *Node) reply(req *simnet.Packet, out []byte, offloaded bool) (after time.Duration) {
	if offloaded {
		n.fastServed++
	} else {
		n.hostServed++
	}
	if n.m != nil {
		after = n.serviceTime(req.Payload, offloaded)
	}
	if len(out) > 0 {
		n.outbox = append(n.outbox, &simnet.Packet{
			Src:     n.addr,
			Dst:     req.Src,
			SrcPort: req.DstPort,
			DstPort: req.SrcPort,
			Payload: append([]byte(nil), out...),
		})
	}
	return after
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
