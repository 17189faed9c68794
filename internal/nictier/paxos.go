package nictier

import (
	"net/netip"
	"sync/atomic"

	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/paxos"
	"incod/internal/telemetry"
)

// PaxosAcceptorTier is the P4xos-style fast path (§3.2): the acceptor
// role served from "NIC memory". The card runs the same role as the host
// — a second paxos.LiveAcceptor with the host's identity, learners and
// sender — and what moves is the state: Warm takes a handoff of the host
// role's AcceptorTable (every promise and vote made on the host is in
// the table the card serves from); until the down-shift hands it back,
// the host role delegates stragglers here, so exactly one copy of the
// acceptor state ever answers. A parked card holds no state and lets
// consensus traffic fall through to the host; messages other than
// Phase1A/2A always do.
type PaxosAcceptorTier struct {
	host, card *paxos.LiveAcceptor
	warm       bool // the card holds the state; Warm/Park are serialized by the Service

	active atomic.Bool
	power  cardPower

	counters    *telemetry.AtomicCounters
	phase1      *atomic.Uint64
	phase2      *atomic.Uint64
	passthrough *atomic.Uint64
	handedOff   *atomic.Uint64
}

var _ dataplane.FastPath = (*PaxosAcceptorTier)(nil)
var _ dataplane.BatchFastPath = (*PaxosAcceptorTier)(nil)

// noState is what a parked card delegates to: nothing is answered, so the
// datagram falls through to the host (or, for a straggler the host sent
// over in the instant of a handback, is dropped — proposers retry).
var noState = dataplane.HandlerFunc(func([]byte, *[]byte) ([]byte, bool) { return nil, false })

// NewPaxosAcceptor returns a tier that can take over host's acceptor
// state.
func NewPaxosAcceptor(host *paxos.LiveAcceptor) *PaxosAcceptorTier {
	c := telemetry.NewAtomicCounters()
	t := &PaxosAcceptorTier{
		host:        host,
		card:        paxos.NewLiveAcceptor(host.ID(), host.Learners(), host.Sender()),
		power:       newCardPower(fpga.P4xosDesign),
		counters:    c,
		phase1:      c.Handle("phase1"),
		phase2:      c.Handle("phase2"),
		passthrough: c.Handle("passthrough"),
		handedOff:   c.Handle("handoff_instances"),
	}
	t.card.BeginHandoff(noState)
	return t
}

// Name implements Tier.
func (t *PaxosAcceptorTier) Name() string { return "p4xos-acceptor" }

// Counters implements Tier.
func (t *PaxosAcceptorTier) Counters() *telemetry.AtomicCounters { return t.counters }

// StatsCounters lets dataplane.Snapshot fold the tier counters in, with
// the size of the card role's table as it is at the read.
func (t *PaxosAcceptorTier) StatsCounters() *telemetry.AtomicCounters {
	card := t.card.StatsCounters()
	t.counters.Handle("instances").Store(card.Get("instances"))
	t.counters.Handle("log_bytes").Store(card.Get("log_bytes"))
	return t.counters
}

// HitRatio implements Tier: the fraction of classified consensus
// messages the tier served.
func (t *PaxosAcceptorTier) HitRatio() float64 {
	hits := t.phase1.Load() + t.phase2.Load()
	total := hits + t.passthrough.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// PowerWatts implements Tier.
func (t *PaxosAcceptorTier) PowerWatts() float64 {
	return t.power.watts(t.active.Load())
}

// Stage implements Tier. The card has no state yet, so consensus traffic
// keeps falling through to the host role until Warm hands it over.
func (t *PaxosAcceptorTier) Stage() error {
	t.active.Store(true)
	return nil
}

// Warm implements Tier: the acceptor state handoff. The host role
// surrenders its table (serialized with its in-flight processing) and
// starts delegating stragglers here; the card installs a clone — the
// modeled DMA into NIC memory: the vote log's sealed chunks shared, its
// open chunk and the index copied, so the window in which no copy
// answers does not grow with the history of votes.
func (t *PaxosAcceptorTier) Warm() error {
	clone := t.host.BeginHandoff(t).Clone()
	t.handedOff.Store(uint64(clone.Instances())) // before publishing: workers own it after
	t.card.EndHandoff(clone)
	t.warm = true
	return nil
}

// Park implements Tier: hand the state back to the host role. Called
// after the fast path has been drained; a straggler delegated in the
// instant between the detach and the reattach is dropped (UDP loss
// semantics — proposers retry), never answered from a stale copy. The
// table moves back by reference — the card holds the only live copy at
// this point, and cloning here would only widen the drop window.
func (t *PaxosAcceptorTier) Park() error {
	t.active.Store(false)
	var table *paxos.AcceptorTable // nil after a failed up-shift: the host kept its own
	if t.warm {
		table, t.warm = t.card.BeginHandoff(noState), false
	}
	t.host.EndHandoff(table)
	return nil
}

// consensus reports whether in is for an acceptor (a Phase1A or 2A).
func consensus(in []byte) bool {
	return len(in) > 0 && (paxos.MsgType(in[0]) == paxos.MsgPhase1A || paxos.MsgType(in[0]) == paxos.MsgPhase2A)
}

// HandleDatagram is what the host role delegates to during a handoff: a
// straggler that reached it after the flip lands on the card's copy of
// the state. Called with the host role's mutex held (lock order: host
// role, then card).
func (t *PaxosAcceptorTier) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	out, served, _ := t.TryHandleDatagram(in, netip.AddrPort{}, scratch)
	return out, served
}

// TryHandleDatagram implements dataplane.FastPath: consensus messages go
// to the card's role — the same zero-allocation promise and re-vote
// paths as on the host — and whatever it does not answer falls through.
func (t *PaxosAcceptorTier) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	if !consensus(in) {
		t.passthrough.Add(1)
		return nil, false, false
	}
	t.power.meter.Add(1)
	out, ok := t.card.HandleDatagram(in, scratch)
	if !ok {
		return nil, false, false // malformed, or the host still owns the state
	}
	if paxos.MsgType(in[0]) == paxos.MsgPhase1A {
		t.phase1.Add(1)
	} else {
		t.phase2.Add(1)
	}
	return out, true, true
}

// TryHandleBatch implements dataplane.BatchFastPath: the batch's
// consensus messages go to the card's role as one batch — one
// acquisition of its lock per chunk — and are marked served when
// answered.
func (t *PaxosAcceptorTier) TryHandleBatch(items []*dataplane.BatchItem) {
	const chunk = 64
	var sub [chunk]*dataplane.BatchItem
	for off := 0; off < len(items); off += chunk {
		n := 0
		for _, it := range items[off:min(off+chunk, len(items))] {
			if consensus(it.In) {
				sub[n] = it
				n++
			}
		}
		if passed := uint64(min(chunk, len(items)-off) - n); passed > 0 {
			t.passthrough.Add(passed)
		}
		if n == 0 {
			continue
		}
		t.power.meter.Add(uint64(n))
		t.card.HandleBatch(sub[:n])
		var p1, served uint64
		for _, it := range sub[:n] {
			if it.Out != nil {
				it.Served = true
				served++
				if paxos.MsgType(it.In[0]) == paxos.MsgPhase1A {
					p1++
				}
			}
		}
		t.phase1.Add(p1)
		t.phase2.Add(served - p1)
	}
}
