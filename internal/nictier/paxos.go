package nictier

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"incod/internal/dataplane"
	"incod/internal/fpga"
	"incod/internal/paxos"
	"incod/internal/telemetry"
)

// PaxosAcceptorTier is the P4xos-style fast path (§3.2): the acceptor
// role served from "NIC memory". Warm takes a state handoff of the host
// role's AcceptorTable (every promise and vote made on the host is in
// the table the tier serves from); until the down-shift hands it back,
// the host role delegates stragglers here, so exactly one copy of the
// acceptor state ever answers. Messages other than Phase1A/2A fall
// through to the host handler.
type PaxosAcceptorTier struct {
	host *paxos.LiveAcceptor

	// mu serializes mutating table accesses (ProcessView, delegated
	// processing) and the Warm/Park swaps; the pointer itself is atomic so
	// the lock-free settled-vote pre-pass can read it without the lock.
	// Nil while parked.
	mu    sync.Mutex
	table atomic.Pointer[paxos.AcceptorTable]

	active atomic.Bool
	meter  *telemetry.AtomicRateMeter
	power  cardPower

	counters    *telemetry.AtomicCounters
	phase1      *atomic.Uint64
	phase2      *atomic.Uint64
	passthrough *atomic.Uint64
	handedOff   *atomic.Uint64
}

var _ paxos.AcceptorDelegate = (*PaxosAcceptorTier)(nil)
var _ dataplane.FastPath = (*PaxosAcceptorTier)(nil)
var _ dataplane.BatchFastPath = (*PaxosAcceptorTier)(nil)

// NewPaxosAcceptor returns a tier that can take over host's acceptor
// state. Vote fan-out reuses the host role's learner list and sender.
func NewPaxosAcceptor(host *paxos.LiveAcceptor) *PaxosAcceptorTier {
	c := telemetry.NewAtomicCounters()
	return &PaxosAcceptorTier{
		host:        host,
		meter:       telemetry.NewAtomicRateMeter(meterBucket, meterBuckets),
		power:       newCardPower(fpga.P4xosDesign),
		counters:    c,
		phase1:      c.Handle("phase1"),
		phase2:      c.Handle("phase2"),
		passthrough: c.Handle("passthrough"),
		handedOff:   c.Handle("handoff_instances"),
	}
}

// Name implements Tier.
func (t *PaxosAcceptorTier) Name() string { return "p4xos-acceptor" }

// Counters implements Tier.
func (t *PaxosAcceptorTier) Counters() *telemetry.AtomicCounters { return t.counters }

// StatsCounters lets dataplane.Snapshot fold the tier counters in.
func (t *PaxosAcceptorTier) StatsCounters() *telemetry.AtomicCounters { return t.counters }

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
	return t.power.watts(t.active.Load(), t.meter)
}

// Stage implements Tier. The tier has no state yet, so consensus traffic
// keeps falling through to the host role until Warm hands it over.
func (t *PaxosAcceptorTier) Stage() error {
	t.active.Store(true)
	return nil
}

// Warm implements Tier: the acceptor state handoff. The host role
// surrenders its table (serialized with its in-flight processing) and
// starts delegating stragglers here; the tier installs a deep copy — the
// modeled DMA into NIC memory.
func (t *PaxosAcceptorTier) Warm() error {
	moved := t.host.BeginHandoff(t)
	clone := moved.Clone()
	instances := clone.Instances() // before publishing: workers own it after
	t.mu.Lock()
	t.table.Store(clone)
	t.mu.Unlock()
	t.handedOff.Store(uint64(instances))
	return nil
}

// Park implements Tier: hand the state back to the host role. Called
// after the fast path has been drained; a straggler delegated in the
// instant between the detach and the reattach is dropped (UDP loss
// semantics — proposers retry), never answered from a stale copy. The
// table moves back by reference — the tier holds the only live copy at
// this point, and cloning here would only widen the drop window.
func (t *PaxosAcceptorTier) Park() error {
	t.active.Store(false)
	t.mu.Lock()
	table := t.table.Load()
	t.table.Store(nil)
	t.mu.Unlock()
	t.host.EndHandoff(table)
	return nil
}

// ProcessDelegated implements paxos.AcceptorDelegate: a straggler that
// reached the host role after the handoff lands on the tier's copy of
// the state. Called with the host role's mutex held (lock order: role,
// then tier).
func (t *PaxosAcceptorTier) ProcessDelegated(m paxos.Msg) (paxos.Msg, bool) {
	t.mu.Lock()
	tab := t.table.Load()
	if tab == nil {
		t.mu.Unlock()
		return paxos.Msg{}, false
	}
	resp, vote, ok := tab.Process(m, t.host.ID())
	t.mu.Unlock()
	return t.finish(m.Type, resp, vote, ok)
}

// finish counts a processed message and fans a vote out to the learners.
func (t *PaxosAcceptorTier) finish(typ paxos.MsgType, resp paxos.Msg, vote, ok bool) (paxos.Msg, bool) {
	if !ok {
		return paxos.Msg{}, false
	}
	switch typ {
	case paxos.MsgPhase1A:
		t.phase1.Add(1)
	case paxos.MsgPhase2A:
		t.phase2.Add(1)
	}
	if vote {
		send := t.host.Sender()
		for _, l := range t.host.Learners() {
			send(l, resp)
		}
	}
	return resp, true
}

// TryHandleDatagram implements dataplane.FastPath. Like the host role,
// the steady-state promise and re-vote paths decode a view over the
// datagram, touch only retained table state and encode into the scratch
// buffer — no heap allocation.
func (t *PaxosAcceptorTier) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	var v paxos.MsgView
	if paxos.DecodeView(in, &v) != nil {
		t.passthrough.Add(1)
		return nil, false, false
	}
	if v.Type != paxos.MsgPhase1A && v.Type != paxos.MsgPhase2A {
		t.passthrough.Add(1)
		return nil, false, false
	}
	t.meter.Add(1)
	// Lock-free pre-pass: a re-vote for a settled instance is answered
	// straight from the table's published lookaside without the tier lock
	// (the settled vote is immutable, so a stale table generation still
	// answers correctly — see LiveAcceptor.table).
	if v.Type == paxos.MsgPhase2A {
		if tab := t.table.Load(); tab != nil {
			if resp, ok := tab.TryVote(&v, t.host.ID()); ok {
				resp, _ = t.finish(v.Type, resp, true, true)
				*scratch = paxos.AppendMsg((*scratch)[:0], resp)
				return *scratch, true, true
			}
		}
	}
	t.mu.Lock()
	tab := t.table.Load()
	if tab == nil {
		t.mu.Unlock()
		// Not yet warmed: the host role still owns the state.
		return nil, false, false
	}
	resp, vote, ok := tab.ProcessView(&v, t.host.ID())
	t.mu.Unlock()
	if resp, ok = t.finish(v.Type, resp, vote, ok); !ok {
		return nil, false, false
	}
	*scratch = paxos.AppendMsg((*scratch)[:0], resp)
	return *scratch, true, true
}

// TryHandleBatch implements dataplane.BatchFastPath: the whole chunk of
// consensus messages is processed under one acquisition of the tier's
// lock — the per-batch epoch check is the same table-nil test the single
// path does per datagram — with fan-out and reply encoding after the
// lock is released, exactly like the batch form of the host role.
func (t *PaxosAcceptorTier) TryHandleBatch(items []*dataplane.BatchItem) {
	const chunk = 64
	for off := 0; off < len(items); off += chunk {
		t.handleChunk(items[off:min(off+chunk, len(items))])
	}
}

func (t *PaxosAcceptorTier) handleChunk(items []*dataplane.BatchItem) {
	var (
		views [64]paxos.MsgView
		resps [64]paxos.Msg
		votes [64]bool
		oks   [64]bool
		done  [64]bool
	)
	classified := uint64(0)
	passed := uint64(0)
	for i, it := range items {
		if paxos.DecodeView(it.In, &views[i]) != nil ||
			(views[i].Type != paxos.MsgPhase1A && views[i].Type != paxos.MsgPhase2A) {
			passed++
			continue
		}
		classified++
		oks[i] = true
	}
	if passed > 0 {
		t.passthrough.Add(passed)
	}
	if classified == 0 {
		return
	}
	t.meter.Add(classified)
	// Lock-free pre-pass: settled re-votes are answered from the table's
	// published lookaside before the tier lock is taken; only the
	// remainder pays for serialization.
	if tab := t.table.Load(); tab != nil {
		for i := range items {
			if oks[i] && views[i].Type == paxos.MsgPhase2A {
				if resp, ok := tab.TryVote(&views[i], t.host.ID()); ok {
					resps[i], votes[i], done[i] = resp, true, true
				}
			}
		}
	}
	t.mu.Lock()
	if tab := t.table.Load(); tab != nil {
		for i := range items {
			if oks[i] && !done[i] {
				resps[i], votes[i], oks[i] = tab.ProcessView(&views[i], t.host.ID())
			}
		}
		t.mu.Unlock()
	} else {
		t.mu.Unlock()
		// Not yet warmed (or parked mid-batch): undecided items fall
		// through to the host role. Pre-pass answers were served from a
		// still-valid generation and go out below.
		for i := range items {
			if !done[i] {
				oks[i] = false
			}
		}
	}
	var p1, p2 uint64
	send := t.host.Sender()
	for i, it := range items {
		if !oks[i] {
			continue
		}
		if views[i].Type == paxos.MsgPhase1A {
			p1++
		} else {
			p2++
		}
		if votes[i] {
			for _, l := range t.host.Learners() {
				send(l, resps[i])
			}
		}
		out := paxos.AppendMsg((*it.Scratch)[:0], resps[i])
		*it.Scratch = out
		it.Served = true
		it.Out = out
	}
	if p1 > 0 {
		t.phase1.Add(p1)
	}
	if p2 > 0 {
		t.phase2.Add(p2)
	}
}
