package simnet

import (
	"fmt"
	"time"
)

// Addr identifies a node on the simulated network. Addresses are free-form
// strings ("server0", "lake-nic", "tor-switch").
type Addr string

// Packet is a datagram traversing the simulated network. All three case
// studies in the paper are UDP based (§3.4), so a datagram service is the
// only transport the simulator provides.
type Packet struct {
	Src, Dst Addr
	// SrcPort and DstPort are UDP ports; packet classifiers (LaKe's and
	// Emu DNS's) dispatch on DstPort.
	SrcPort, DstPort uint16
	Payload          []byte
}

// WireSize returns the byte count used for serialization-delay
// accounting: the payload plus 42 bytes of Ethernet+IPv4+UDP headers,
// the common case for the paper's workloads.
func (p *Packet) WireSize() int { return len(p.Payload) + 42 }

// Node is anything that can receive packets from the network.
type Node interface {
	// Addr returns the node's network address.
	Addr() Addr
	// Receive handles a packet delivered to this node. It runs inside the
	// simulation loop; implementations may schedule further events.
	Receive(pkt *Packet)
}

// LinkConfig describes a unidirectional link.
type LinkConfig struct {
	// Bandwidth in bits per second. Zero means infinite (no serialization
	// delay). The paper's front-panel interfaces are 10GE.
	Bandwidth float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueLimit bounds the number of packets in flight on the link
	// (drop-tail). Zero means unbounded.
	QueueLimit int
}

// TenGigE is the link configuration of the NetFPGA SUME front-panel ports.
var TenGigE = LinkConfig{Bandwidth: 10e9, Delay: 500 * time.Nanosecond, QueueLimit: 4096}

// link is the runtime state of a unidirectional link.
type link struct {
	cfg LinkConfig
	// busyUntil is when the transmitter finishes the current packet.
	busyUntil Time
	inFlight  int
}

// Network connects nodes with point-to-point links and delivers packets
// with serialization + propagation delay.
type Network struct {
	sim   *Simulator
	nodes map[Addr]Node
	links map[[2]Addr]*link
	// Default link used between nodes with no explicit link.
	defaultLink LinkConfig

	// Fault-injection state (see faults.go).
	plan   FaultPlan
	tracer Tracer
}

// NewNetwork returns an empty network attached to sim. Packets between
// nodes without an explicit link use def.
func NewNetwork(sim *Simulator, def LinkConfig) *Network {
	return &Network{
		sim:         sim,
		nodes:       make(map[Addr]Node),
		links:       make(map[[2]Addr]*link),
		defaultLink: def,
	}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *Simulator { return n.sim }

// Attach registers a node. Attaching two nodes with the same address is a
// programming error and panics.
func (n *Network) Attach(node Node) {
	if _, dup := n.nodes[node.Addr()]; dup {
		panic(fmt.Sprintf("simnet: duplicate node address %q", node.Addr()))
	}
	n.nodes[node.Addr()] = node
}

func (n *Network) linkFor(src, dst Addr) *link {
	if l, ok := n.links[[2]Addr{src, dst}]; ok {
		return l
	}
	l := &link{cfg: n.defaultLink}
	n.links[[2]Addr{src, dst}] = l
	return l
}

// Send transmits pkt from pkt.Src to pkt.Dst. Delivery happens after the
// link's serialization and propagation delay plus any fault-plan delay
// terms; packets beyond the link's queue limit or lost to the fault plan's
// loss rate are dropped. Send reports whether the packet was accepted onto
// the link.
func (n *Network) Send(pkt *Packet) bool {
	n.trace(TraceSend, pkt.Src, pkt.Dst, pkt.Payload)
	l := n.linkFor(pkt.Src, pkt.Dst)
	if l.cfg.QueueLimit > 0 && l.inFlight >= l.cfg.QueueLimit {
		n.trace(TraceDropQueue, pkt.Src, pkt.Dst, nil)
		return false
	}
	f := n.plan.For(pkt.Src, pkt.Dst)
	if f.LossRate > 0 && n.sim.Rand().Float64() < f.LossRate {
		n.trace(TraceDropLoss, pkt.Src, pkt.Dst, nil)
		return false
	}
	now := n.sim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var ser time.Duration
	if l.cfg.Bandwidth > 0 {
		bits := float64(pkt.WireSize()) * 8
		ser = time.Duration(bits / l.cfg.Bandwidth * float64(time.Second))
	}
	l.busyUntil = start.Add(ser)
	deliver := l.busyUntil.Add(l.cfg.Delay)
	// Fault-plan delay terms, all drawn from the seeded RNG in fixed
	// order: jitter on every packet, then the reordering hold (which lets
	// naturally later packets overtake).
	if f.JitterMax > 0 {
		deliver = deliver.Add(time.Duration(n.sim.Rand().Int63n(int64(f.JitterMax))))
	}
	if f.ReorderRate > 0 && n.sim.Rand().Float64() < f.ReorderRate {
		deliver = deliver.Add(time.Duration(1 + n.sim.Rand().Int63n(int64(reorderWindow))))
	}
	l.inFlight++
	n.sim.ScheduleAt(deliver, func() { n.deliver(l, pkt, TraceDeliver) })
	if f.DupRate > 0 && n.sim.Rand().Float64() < f.DupRate {
		l.inFlight++
		dup := deliver.Add(time.Duration(1 + n.sim.Rand().Int63n(int64(reorderWindow))))
		n.sim.ScheduleAt(dup, func() { n.deliver(l, pkt, TraceDup) })
	}
	return true
}

// deliver lands one (possibly duplicated) copy of pkt.
func (n *Network) deliver(l *link, pkt *Packet, kind string) {
	l.inFlight--
	node, ok := n.nodes[pkt.Dst]
	if !ok {
		n.trace(TraceUnroutable, pkt.Src, pkt.Dst, nil)
		return
	}
	n.trace(kind, pkt.Src, pkt.Dst, pkt.Payload)
	node.Receive(pkt)
}
