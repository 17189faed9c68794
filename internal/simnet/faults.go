package simnet

import (
	"time"
)

// Faults augments one unidirectional link with chaos injectors. All
// probabilities are evaluated against the simulator's seeded random
// source in a fixed order, so a whole run — including every injected
// fault — replays byte-for-byte from (seed, plan).
//
// Faults compose with the link's LinkConfig: the delay terms add on top of
// serialization + propagation delay, and LossRate drops packets the link's
// queue accepted.
type Faults struct {
	// LossRate drops this fraction of packets.
	LossRate float64
	// DupRate delivers this fraction of packets twice. The duplicate
	// arrives after the original by up to the 20µs reorder window.
	DupRate float64
	// ReorderRate delays this fraction of packets by an extra uniform
	// draw from the window, (0, 20µs], letting later packets overtake
	// them.
	ReorderRate float64
	// JitterMax adds a uniform [0, JitterMax) latency to every packet.
	JitterMax time.Duration
}

// reorderWindow bounds the extra delay of reordered and duplicated
// packets.
const reorderWindow = 20 * time.Microsecond

// FaultPlan assigns fault injectors to a network: Default applies to
// every link, Links overrides specific (src, dst) directions. A plan is
// pure data — (seed, plan) fully determines a chaos run, which is what
// makes any failure reproducible.
type FaultPlan struct {
	Default Faults
	Links   map[[2]Addr]Faults
}

// For returns the faults applying to the src->dst link.
func (p FaultPlan) For(src, dst Addr) Faults {
	if f, ok := p.Links[[2]Addr{src, dst}]; ok {
		return f
	}
	return p.Default
}

// SetFaultPlan installs plan on the network. It applies to every packet
// sent from now on, existing links included.
func (n *Network) SetFaultPlan(plan FaultPlan) { n.plan = plan }

// --- event trace ----------------------------------------------------------

// Trace event kinds, passed to the tracer.
const (
	TraceSend       = "send"
	TraceDeliver    = "deliver"
	TraceDup        = "dup"
	TraceDropLoss   = "drop-loss"
	TraceDropQueue  = "drop-queue"
	TraceUnroutable = "unroutable"
)

// Tracer observes every packet event. Install with SetTracer to dump a
// run's full schedule (the chaos runner writes it as the replay
// artifact) or to fold it into a hash.
type Tracer func(kind string, at Time, src, dst Addr, payload []byte)

// SetTracer installs fn (nil disables). The tracer fires in event order,
// so its output is deterministic per (seed, plan).
func (n *Network) SetTracer(fn Tracer) { n.tracer = fn }

// trace forwards one packet event to the tracer when installed.
func (n *Network) trace(kind string, src, dst Addr, payload []byte) {
	if n.tracer != nil {
		n.tracer(kind, n.sim.Now(), src, dst, payload)
	}
}
