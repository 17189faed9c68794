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
	// arrives after the original by up to ReorderWindow (default 10µs).
	DupRate float64
	// ReorderRate delays this fraction of packets by an extra uniform
	// draw from (0, ReorderWindow], letting later packets overtake them.
	ReorderRate float64
	// ReorderWindow bounds the extra delay of reordered (and duplicated)
	// packets. Zero with a nonzero ReorderRate defaults to 10µs.
	ReorderWindow time.Duration
	// JitterMax adds a uniform [0, JitterMax) latency to every packet.
	JitterMax time.Duration
	// StraggleRate delays this fraction of packets by StraggleDelay —
	// the "straggler tier" injector: a packet stuck behind a slow hop.
	StraggleRate float64
	// StraggleDelay is the straggler's fixed extra delay.
	StraggleDelay time.Duration
}

// active reports whether any injector is configured.
func (f Faults) active() bool {
	return f.LossRate > 0 || f.DupRate > 0 || f.ReorderRate > 0 ||
		f.JitterMax > 0 || f.StraggleRate > 0
}

// reorderWindow returns the effective reorder/duplicate delay bound.
func (f Faults) reorderWindow() time.Duration {
	if f.ReorderWindow > 0 {
		return f.ReorderWindow
	}
	return 10 * time.Microsecond
}

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

// Trace event kinds, folded into the trace hash and passed to the tracer.
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
// artifact); the trace hash is maintained regardless.
type Tracer func(kind string, at Time, src, dst Addr, payload []byte)

// SetTracer installs fn (nil disables). The tracer fires in event order,
// so its output is deterministic per (seed, plan).
func (n *Network) SetTracer(fn Tracer) { n.tracer = fn }

// TraceHash is an order-sensitive FNV-1a fold of every packet event —
// kind, virtual time, endpoints and payload bytes. Two runs with the
// same seed and plan produce the same hash; any divergence in content
// or interleaving changes it, which is the determinism check the chaos
// harness sweeps.
func (n *Network) TraceHash() uint64 { return n.hash }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return fnvByte(h, 0xff)
}

// trace folds one packet event into the hash and forwards it to the
// tracer when installed.
func (n *Network) trace(kind string, src, dst Addr, payload []byte) {
	h := n.hash
	if h == 0 {
		h = fnvOffset
	}
	h = fnvString(h, kind)
	at := n.sim.Now()
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(at>>(8*i)))
	}
	h = fnvString(h, string(src))
	h = fnvString(h, string(dst))
	for _, b := range payload {
		h = fnvByte(h, b)
	}
	n.hash = h
	if n.tracer != nil {
		n.tracer(kind, at, src, dst, payload)
	}
}
