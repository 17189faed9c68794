package paxos

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"incod/internal/dataplane"
	"incod/internal/simnet"
	"incod/internal/telemetry"
)

// This file holds the protocol roles, once: acceptor, leader and learner
// as dataplane handlers. incpaxosd serves them through the sharded engine
// on real sockets; internal/simhost serves the same values on simnet's
// virtual clock for the figures, the scenario runner and the chaos
// harness. Role state is mutex-protected — the engine may run several
// shard workers. Replies to the message source go back through the
// serving loop; fan-out (acceptor→learners, leader→acceptors,
// learner→client) goes through a Sender the substrate provides.

// Sender transmits one message to a peer address ("host:port" on
// sockets, a simnet.Addr in simulation).
type Sender func(to string, m Msg)

// --- acceptor -------------------------------------------------------------

type liveVoteState struct {
	promised uint32
	accepted bool
	// prepared: promised was established by an explicit Phase1A, which
	// entitles the matching Phase2A to overwrite a lower vote (its
	// proposer adopted the highest value of a promise quorum).
	prepared bool
	vballot  uint32
	m        Msg
}

// overwritable reports whether a Phase2A at st.promised may replace the
// accepted vote.
func (st *liveVoteState) overwritable() bool {
	return st.prepared && st.promised > st.vballot
}

// Outcome is what the acceptor rules did with one message.
type Outcome uint8

// Outcomes. The role counts one per datagram under these names.
const (
	Ignored     Outcome = iota // not a message for an acceptor
	Promised                   // Phase1A answered with a Phase1B ("phase1a")
	Voted                      // fresh Phase2A accepted ("voted")
	Reannounced                // Phase2A on an accepted instance: the vote re-sent ("reannounce")
	Recovered                  // explicitly promised Phase2A replaced a lower vote ("recovered")
	Rejected                   // Phase2A below the promise, nacked ("rejected")
	numOutcomes
)

var outcomeNames = [numOutcomes]string{Promised: "phase1a", Voted: "voted",
	Reannounced: "reannounce", Recovered: "recovered", Rejected: "rejected"}

// Vote reports whether the response is a Phase2B that must also fan out
// to the learners.
func (o Outcome) Vote() bool { return o == Voted || o == Reannounced || o == Recovered }

// AcceptorTable is the acceptor state machine: the promise/vote rules
// over per-instance records plus the §9.2 last-voted high-water mark. It
// is the unit of state a placement shift hands between the host role and
// the emulated NIC fast path, and a replacement acceptor copies from a
// surviving peer. Mutations are serialized by the owner (LiveAcceptor or
// the NIC tier); the settled lookaside additionally lets ANY goroutine
// answer a Phase2A for an accepted instance via TryVote.
//
// An accepted value is not immutable: a ballot promised by Phase1A may
// overwrite a lower vote (gap recovery). The lookaside stays correct
// because the promise that makes an instance overwritable withdraws its
// template first, so the recovery 2A misses TryVote and reaches the
// locked path, and the overwrite republishes the new vote. A reader that
// loaded the old template just before, or holds a retired generation,
// may still re-send the old vote; that duplicates a message this
// acceptor validly sent, which Paxos tolerates at any delay: a learner
// counts it only toward a quorum that voted that very (ballot, value),
// and such a quorum means the value was chosen.
type AcceptorTable struct {
	states    map[uint64]*liveVoteState
	lastVoted atomic.Uint64

	// settled is the lock-free lookaside: an open-addressing table from
	// instance to a prebuilt Phase2B template (nil while the instance is
	// overwritable). The owner publishes, readers only load; templates
	// are replaced, never mutated. Grown generations are republished
	// whole; a reader on a retired one misses newer instances and falls
	// back to the locked path.
	settled      atomic.Pointer[settledTable]
	settledCount int // owner-serialized
}

// settledTable maps instance -> prebuilt Phase2B. insts holds inst+1 so
// zero means empty (wire instance numbers start at 0 in principle);
// votes[i] is published before insts[i], so a visible key always has a
// visible template.
type settledTable struct {
	mask  uint64
	insts []atomic.Uint64
	votes []atomic.Pointer[Msg]
}

// settledFib is the Fibonacci multiplier spreading sequential instance
// numbers across the table.
const settledFib = 0x9E3779B97F4A7C15

// NewAcceptorTable returns an empty table.
func NewAcceptorTable() *AcceptorTable {
	return &AcceptorTable{states: make(map[uint64]*liveVoteState)}
}

// Instances returns how many per-instance records the table holds — the
// size of a state handoff.
func (t *AcceptorTable) Instances() int { return len(t.states) }

// LastVoted returns the highest instance this acceptor has voted on.
func (t *AcceptorTable) LastVoted() uint64 { return t.lastVoted.Load() }

// Accepted returns the value voted for inst, if any. Owner-serialized.
func (t *AcceptorTable) Accepted(inst uint64) ([]byte, bool) {
	st := t.states[inst]
	if st == nil || !st.accepted {
		return nil, false
	}
	return st.m.Value, true
}

// Clone copies the table (promises, prepared marks and lookaside
// included): the modeled DMA of acceptor state into NIC memory, and the
// state transfer to a replacement acceptor. Retained values are shared;
// they are replaced, never written in place.
func (t *AcceptorTable) Clone() *AcceptorTable {
	out := &AcceptorTable{
		states: make(map[uint64]*liveVoteState, len(t.states)),
	}
	out.lastVoted.Store(t.lastVoted.Load())
	for inst, st := range t.states {
		cp := *st
		out.states[inst] = &cp
		if cp.accepted {
			out.publishSettled(inst, &cp)
		}
	}
	return out
}

// publishSettled installs the Phase2B template for an accepted instance
// into the lookaside, replaces it after an overwrite, or withdraws it
// (nil) while the instance is overwritable. Owner-serialized; readers
// see votes-before-insts publication order.
func (t *AcceptorTable) publishSettled(inst uint64, st *liveVoteState) {
	tab := t.settled.Load()
	if tab == nil || (t.settledCount+1)*8 >= len(tab.insts)*7 {
		t.growSettled(tab)
		tab = t.settled.Load()
	}
	var vote *Msg
	if !st.overwritable() {
		m := t.answer(MsgPhase2B, inst, st, 0)
		vote = &m
	}
	idx := (inst * settledFib) & tab.mask
	for key := tab.insts[idx].Load(); key != 0; key = tab.insts[idx].Load() {
		if key == inst+1 {
			tab.votes[idx].Store(vote)
			return
		}
		idx = (idx + 1) & tab.mask
	}
	tab.votes[idx].Store(vote)
	tab.insts[idx].Store(inst + 1)
	t.settledCount++
}

// growSettled builds and publishes a larger generation carrying every
// settled entry. The old generation is left intact for stale readers.
func (t *AcceptorTable) growSettled(old *settledTable) {
	size := 256
	if old != nil {
		size = len(old.insts) * 2
	}
	nt := &settledTable{
		mask:  uint64(size - 1),
		insts: make([]atomic.Uint64, size),
		votes: make([]atomic.Pointer[Msg], size),
	}
	if old != nil {
		for i := range old.insts {
			key := old.insts[i].Load()
			if key == 0 {
				continue
			}
			idx := ((key - 1) * settledFib) & nt.mask
			for nt.insts[idx].Load() != 0 {
				idx = (idx + 1) & nt.mask
			}
			nt.votes[idx].Store(old.votes[i].Load())
			nt.insts[idx].Store(key)
		}
	}
	t.settled.Store(nt)
}

// TryVote answers a Phase2A for a settled instance without any lock: the
// template is never written after publication, so the only per-call
// fields are the responder identity and the last-voted piggyback (a
// stale one is harmless: the leader folds the maximum). The vote is
// written to out (Msg copies are what this path costs). false — not in
// the lookaside, overwritable, or not a 2A — sends the caller to the
// locked path.
func (t *AcceptorTable) TryVote(v *MsgView, id uint16, out *Msg) bool {
	tab := t.settled.Load()
	if v.Type != MsgPhase2A || tab == nil {
		return false
	}
	idx := (v.Instance * settledFib) & tab.mask
	for range tab.insts {
		got := tab.insts[idx].Load()
		if got == 0 {
			return false
		}
		if got == v.Instance+1 {
			mp := tab.votes[idx].Load()
			if mp == nil {
				return false // withdrawn or mid-publication; locked path serves it
			}
			*out = *mp
			out.NodeID = id
			out.LastVoted = t.lastVoted.Load()
			return true
		}
		idx = (idx + 1) & tab.mask
	}
	return false
}

func (t *AcceptorTable) state(inst uint64) *liveVoteState {
	st := t.states[inst]
	if st == nil {
		st = &liveVoteState{}
		t.states[inst] = st
	}
	return st
}

// ProcessView applies the acceptor rules to the decoded view v for the
// acceptor identity id. The caller returns resp to the proposer, and
// fans it out to the learners when the outcome is a Vote. The rules:
//
//   - a Phase1A at or above the promise is promised and marks the
//     instance prepared; the 1B carries the accepted vote, if any, with
//     the client identity a recovering leader re-proposes it under;
//   - a fresh Phase2A (no Phase1A at its ballot) never overwrites an
//     accepted value: the acceptor re-announces its vote instead, so a
//     restarted leader colliding with old instances (§9.2) cannot damage
//     potentially decided state;
//   - a Phase2A whose ballot was explicitly promised may overwrite a
//     lower vote: how the leader fills the holes a learner reports.
//
// Only a fresh 2A copies (its value and client address must outlive the
// datagram); promises and re-votes allocate nothing.
func (t *AcceptorTable) ProcessView(v *MsgView, id uint16) (resp Msg, o Outcome) {
	switch v.Type {
	case MsgPhase1A:
		st := t.state(v.Instance)
		if v.Ballot >= st.promised {
			settled := st.accepted && !st.overwritable()
			st.promised = v.Ballot
			st.prepared = true
			if settled && st.overwritable() {
				t.publishSettled(v.Instance, st) // withdraw: the recovery 2A must reach the rules
			}
		}
		return t.answer(MsgPhase1B, v.Instance, st, id), Promised
	case MsgPhase2A:
		st := t.state(v.Instance)
		o = Voted
		if st.accepted {
			if !st.overwritable() || v.Ballot != st.promised {
				return t.answer(MsgPhase2B, v.Instance, st, id), Reannounced
			}
			o = Recovered
		}
		if v.Ballot < st.promised {
			return t.answer(MsgPhase1B, v.Instance, st, id), Rejected
		}
		st.promised = v.Ballot
		st.prepared = false
		st.accepted = true
		st.vballot = v.Ballot
		st.m = v.Msg() // the retention copy: state outlives the datagram
		if v.Instance > t.lastVoted.Load() {
			t.lastVoted.Store(v.Instance)
		}
		t.publishSettled(v.Instance, st)
		return t.answer(MsgPhase2B, v.Instance, st, id), o
	}
	return Msg{}, Ignored
}

// answer builds a response for st under identity id: a Phase2B at the
// vote's ballot or a Phase1B at the promise, carrying the retained vote
// when there is one.
func (t *AcceptorTable) answer(typ MsgType, inst uint64, st *liveVoteState, id uint16) Msg {
	var out Msg
	if st.accepted {
		out = st.m
		out.VBallot = st.vballot
	}
	out.Type, out.Instance, out.NodeID, out.LastVoted = typ, inst, id, t.lastVoted.Load()
	if out.Ballot = st.promised; typ == MsgPhase2B {
		out.Ballot = st.vballot
	}
	return out
}

// LiveAcceptor is the acceptor role as a dataplane handler. Phase1B/2B
// responses to the proposer are returned (the serving loop replies to
// the source); votes additionally fan out to the learners. Every
// response piggybacks the §9.2 last-voted instance. While a handoff is
// in effect (BeginHandoff..EndHandoff) the role delegates to the NIC tier
// instead of touching its own — surrendered — table: stragglers
// dispatched to the host after the fast path flipped still land on the
// one live copy of the state, and a delegate that answers nothing drops
// them (proposers retry), the safe answer while no copy is serving.
type LiveAcceptor struct {
	id       uint16
	learners []string
	send     Sender

	counters *telemetry.AtomicCounters
	outcomes [numOutcomes]*atomic.Uint64

	// table is an atomic pointer so the lock-free Phase2A pre-pass can
	// reach the settled lookaside without the mutex, which serializes
	// all mutation and the handoff swap. A pre-pass that loaded the
	// pointer just before BeginHandoff swapped it may answer a straggler
	// from the surrendered table while the tier serves its clone — safe
	// by the duplicate argument on AcceptorTable: whatever that
	// lookaside still holds is a vote this acceptor sent.
	mu       sync.Mutex
	table    atomic.Pointer[AcceptorTable]
	delegate dataplane.Handler
}

var _ dataplane.Handler = (*LiveAcceptor)(nil)
var _ dataplane.BatchHandler = (*LiveAcceptor)(nil)

// NewLiveAcceptor returns an acceptor with identity id voting to learners.
func NewLiveAcceptor(id uint16, learners []string, send Sender) *LiveAcceptor {
	a := &LiveAcceptor{id: id, learners: learners, send: send, counters: telemetry.NewAtomicCounters()}
	for o := Promised; o < numOutcomes; o++ {
		a.outcomes[o] = a.counters.Handle(outcomeNames[o])
	}
	a.table.Store(NewAcceptorTable())
	return a
}

// ID returns the acceptor's identity, piggybacked on every response.
func (a *LiveAcceptor) ID() uint16 { return a.id }

// Learners returns the learner addresses votes fan out to.
func (a *LiveAcceptor) Learners() []string { return a.learners }

// Sender returns the fan-out transmitter.
func (a *LiveAcceptor) Sender() Sender { return a.send }

// StatsCounters implements dataplane.StatsReporter: one count per
// datagram the host role processed, by Outcome.
func (a *LiveAcceptor) StatsCounters() *telemetry.AtomicCounters { return a.counters }

// LastVoted returns the highest instance the host role's table has voted
// on (the tier's copy is ahead of it while a handoff is in effect).
func (a *LiveAcceptor) LastVoted() uint64 { return a.table.Load().LastVoted() }

// AcceptedValue returns the value the host role's table holds for inst.
func (a *LiveAcceptor) AcceptedValue(inst uint64) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.table.Load().Accepted(inst)
}

// Snapshot returns a copy of the acceptor's state: what a replacement
// acceptor installs with EndHandoff to answer exactly like this one
// (§9.2 defers reconfiguration to Vertical-Paxos-style protocols; this
// is the state-transfer half).
func (a *LiveAcceptor) Snapshot() *AcceptorTable {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.table.Load().Clone()
}

// BeginHandoff surrenders the acceptor's state table to d (the NIC tier)
// and returns it. Until EndHandoff, any datagram that still reaches the
// host role — a straggler dispatched before the fast path flipped — is
// delegated to d, so exactly one copy of the state ever serves. The
// handoff is serialized with in-flight host processing by the role's own
// mutex: every promise or vote made before this call is in the returned
// table.
func (a *LiveAcceptor) BeginHandoff(d dataplane.Handler) *AcceptorTable {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.table.Load()
	a.table.Store(NewAcceptorTable())
	a.delegate = d
	return t
}

// EndHandoff reinstalls t as the acceptor's state and stops delegating —
// the down-shift counterpart of BeginHandoff, called after the fast path
// has been drained.
func (a *LiveAcceptor) EndHandoff(t *AcceptorTable) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t != nil {
		a.table.Store(t)
	}
	a.delegate = nil
}

func (a *LiveAcceptor) fanOut(vote *Msg) {
	for _, l := range a.learners {
		a.send(l, *vote)
	}
}

// HandleDatagram implements dataplane.Handler. The steady-state paths —
// a promise on a known instance, a re-vote on an accepted one — run
// without heap allocation: DecodeView aliases the datagram and the reply
// encodes into the scratch buffer. Re-votes on settled instances, the
// dominant retry traffic under duplication and loss, are answered
// without the role mutex via the table's settled lookaside.
func (a *LiveAcceptor) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	var v MsgView
	if DecodeView(in, &v) != nil {
		return nil, false
	}
	var resp Msg
	if a.table.Load().TryVote(&v, a.id, &resp) {
		a.outcomes[Reannounced].Add(1)
		a.fanOut(&resp)
		return a.reply(&resp, scratch)
	}
	a.mu.Lock()
	if d := a.delegate; d != nil {
		// The NIC tier owns the state; route this straggler there. The
		// role's mutex is held across the call (lock order: role, then
		// tier), keeping it ordered with BeginHandoff/EndHandoff.
		out, ok := d.HandleDatagram(in, scratch)
		a.mu.Unlock()
		return out, ok
	}
	resp, o := a.table.Load().ProcessView(&v, a.id)
	a.mu.Unlock()
	if o == Ignored {
		return nil, false
	}
	a.outcomes[o].Add(1)
	if o.Vote() {
		a.fanOut(&resp)
	}
	return a.reply(&resp, scratch)
}

func (a *LiveAcceptor) reply(m *Msg, scratch *[]byte) ([]byte, bool) {
	*scratch = appendMsg((*scratch)[:0], m)
	return *scratch, true
}

// liveBatchChunk is the unit of batch work for the roles: per-chunk
// scratch state lives in fixed stack arrays, like the KVS handler's.
const liveBatchChunk = 64

// HandleBatch implements dataplane.BatchHandler: a chunk is processed
// under one acquisition of the role's mutex, with decodes before the
// lock and reply encoding plus learner fan-out after it, as the single
// path orders them. Replies built after unlock reference retained state,
// which is replaced under the lock and never written in place.
func (a *LiveAcceptor) HandleBatch(items []*dataplane.BatchItem) {
	for off := 0; off < len(items); off += liveBatchChunk {
		a.handleChunk(items[off:min(off+liveBatchChunk, len(items))])
	}
}

func (a *LiveAcceptor) handleChunk(items []*dataplane.BatchItem) {
	var (
		views [liveBatchChunk]MsgView
		resps [liveBatchChunk]Msg
		outs  [liveBatchChunk]Outcome // Ignored until answered
		bad   [liveBatchChunk]bool    // nothing (more) to do here
		count [numOutcomes]uint64
	)
	for i, it := range items {
		bad[i] = DecodeView(it.In, &views[i]) != nil
	}
	// Lock-free pre-pass: settled re-votes are answered off the
	// lookaside before the chunk ever takes the role mutex, shrinking
	// the locked section to fresh/unsettled work only. It stops at the
	// chunk's first Phase1A, which may withdraw what a later 2A would
	// hit: the batch must answer as the same datagrams one by one would.
	tab := a.table.Load()
	for i := range items {
		if bad[i] {
			continue
		}
		if views[i].Type == MsgPhase1A {
			break
		}
		if tab.TryVote(&views[i], a.id, &resps[i]) {
			outs[i] = Reannounced
		}
	}
	a.mu.Lock()
	if d := a.delegate; d != nil {
		// Handoff in effect: stragglers route to the tier's copy, which
		// fans its own votes out, with the role mutex held across the
		// chunk (lock order: role, tier). What the pre-pass answered off
		// the pre-swap table (see the field comment) still goes out.
		for i, it := range items {
			if !bad[i] && outs[i] == Ignored {
				if out, ok := d.HandleDatagram(it.In, it.Scratch); ok {
					it.Out = out
				}
				bad[i] = true // answered, or dropped, over there
			}
		}
	} else {
		tab = a.table.Load()
		for i := range items {
			if !bad[i] && outs[i] == Ignored {
				resps[i], outs[i] = tab.ProcessView(&views[i], a.id)
				bad[i] = outs[i] == Ignored
			}
		}
	}
	a.mu.Unlock()
	for i, it := range items {
		if bad[i] {
			continue
		}
		count[outs[i]]++
		if outs[i].Vote() {
			a.fanOut(&resps[i])
		}
		out := appendMsg((*it.Scratch)[:0], &resps[i])
		*it.Scratch = out
		it.Out = out
	}
	for o := Promised; o < numOutcomes; o++ {
		if count[o] > 0 {
			a.outcomes[o].Add(count[o])
		}
	}
}

// --- leader ---------------------------------------------------------------

// LiveLeader is the coordinator role as a dataplane handler: it sequences
// client requests into instances and proposes them to the acceptors (the
// steady-state P4xos flow, Phase1 implicit in the leader's ballot). Per
// §9.2 a fresh leader starts at instance 1 and fast-forwards from the
// last-voted values piggybacked on acceptor responses, and fills the
// holes a learner reports with a Phase1/Phase2 exchange. It never
// replies to the source, so all output goes through the Sender.
type LiveLeader struct {
	send Sender

	counters    *telemetry.AtomicCounters
	requests    *atomic.Uint64
	ignored     *atomic.Uint64
	fastForward *atomic.Uint64
	gapRequests *atomic.Uint64
	recoveries  *atomic.Uint64

	mu        sync.Mutex
	acceptors []string
	ballot    uint32
	top       uint32 // highest ballot used, recovery rounds included
	next      uint64
	paused    bool
	// Gap recovery: attempts per instance (each one raises the ballot)
	// and the Phase1 exchanges awaiting their promise quorum.
	gapAttempts map[uint64]uint32
	prepares    map[uint64]*prepare
}

// prepare is one recovery Phase1 exchange in flight: its ballot and the
// promises heard so far, one per acceptor, in arrival order.
type prepare struct {
	ballot   uint32
	promises []Msg
}

var _ dataplane.Handler = (*LiveLeader)(nil)
var _ dataplane.SourceHandler = (*LiveLeader)(nil)
var _ dataplane.BatchHandler = (*LiveLeader)(nil)

// NewLiveLeader returns a leader proposing with ballot (its epoch; a
// shifted-in replacement must use a higher one) to acceptors.
func NewLiveLeader(ballot uint32, acceptors []string, send Sender) *LiveLeader {
	c := telemetry.NewAtomicCounters()
	return &LiveLeader{
		send: send, counters: c,
		requests:    c.Handle("requests"),
		ignored:     c.Handle("ignored_inactive"),
		fastForward: c.Handle("fast_forward"),
		gapRequests: c.Handle("gap_requests"),
		recoveries:  c.Handle("recoveries"),
		acceptors:   append([]string(nil), acceptors...),
		ballot:      ballot, top: ballot, next: 1,
		gapAttempts: make(map[uint64]uint32),
		prepares:    make(map[uint64]*prepare),
	}
}

// StatsCounters implements dataplane.StatsReporter.
func (l *LiveLeader) StatsCounters() *telemetry.AtomicCounters { return l.counters }

// Next returns the next unused instance number (what the §9.2 hand-off
// must learn).
func (l *LiveLeader) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// HighestBallot returns the highest ballot the leader has used, recovery
// rounds included. A successor must start above it, or a fresh proposal
// of its could pass for the Phase2A of a recovery still in flight.
func (l *LiveLeader) HighestBallot() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.top
}

// Restart makes this the §9.2 fresh leader under ballot: "the new leader
// starts with an initial sequence number of 1 and must learn the next
// sequence number that it can use".
func (l *LiveLeader) Restart(ballot uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ballot, l.next = ballot, 1
	l.top = max(l.top, ballot)
}

// SetActive pauses or resumes the leader. A paused leader ignores client
// requests and gap requests (its forwarding rule has moved elsewhere) but
// keeps fast-forwarding from what the acceptors tell it.
func (l *LiveLeader) SetActive(v bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.paused = !v
}

// ReplaceAcceptor repoints proposals for acceptor old at its replacement.
func (l *LiveLeader) ReplaceAcceptor(old, replacement string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, a := range l.acceptors {
		if a == old {
			l.acceptors[i] = replacement
		}
	}
}

// HandleDatagram implements dataplane.Handler.
func (l *LiveLeader) HandleDatagram(in []byte, scratch *[]byte) ([]byte, bool) {
	return l.HandleDatagramFrom(in, netip.AddrPort{}, scratch)
}

// HandleDatagramFrom implements dataplane.SourceHandler; the source backs
// the client address when a request does not carry one. The dominant
// inbound stream — 2B fast-forward feedback from the acceptors — is
// handled entirely on the view, copying nothing.
func (l *LiveLeader) HandleDatagramFrom(in []byte, from netip.AddrPort, _ *[]byte) ([]byte, bool) {
	var v MsgView
	if DecodeView(in, &v) != nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyView(&v, from)
	return nil, false
}

// HandleBatch implements dataplane.BatchHandler: the batch's requests
// are sequenced and proposed under a single acquisition of the leader's
// mutex instead of one per datagram.
func (l *LiveLeader) HandleBatch(items []*dataplane.BatchItem) {
	var v MsgView
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, it := range items {
		if DecodeView(it.In, &v) == nil {
			l.applyView(&v, it.Src)
		}
	}
}

// applyView runs the leader rules for one decoded message. l.mu is held.
// Proposals materialize the request's value and client address — the
// Sender contract allows retention, so they must not alias the datagram.
func (l *LiveLeader) applyView(v *MsgView, from netip.AddrPort) {
	switch v.Type {
	case MsgClientRequest:
		if l.paused {
			l.ignored.Add(1)
			return
		}
		l.requests.Add(1)
		inst := l.next
		l.next++
		clientAddr := simnet.Addr(v.ClientAddr)
		if clientAddr == "" && from.IsValid() {
			clientAddr = simnet.Addr(from.String())
		}
		l.propose(Msg{Type: MsgPhase2A, Instance: inst, Ballot: l.ballot,
			ClientID: v.ClientID, Seq: v.Seq, ClientAddr: clientAddr,
			Value: append([]byte(nil), v.Value...)})
	case MsgPhase2B:
		l.learnNext(v.LastVoted)
	case MsgPhase1B:
		l.learnNext(v.LastVoted)
		l.promised(v)
	case MsgGapRequest:
		if l.paused {
			return
		}
		l.gapRequests.Add(1)
		l.recover(v.Instance)
	}
}

// learnNext is the §9.2 fast-forward: learn the most recent sequence
// number from an acceptor's piggybacked last-voted instance.
func (l *LiveLeader) learnNext(lastVoted uint64) {
	if lastVoted+1 > l.next {
		l.fastForward.Add(1)
		l.next = lastVoted + 1
	}
}

// recover re-initiates a hole the learner reported (§9.2) with a full
// Phase1/Phase2 exchange at a fresh ballot: the promise quorum reveals
// any accepted value, which is re-proposed, so re-initiation can never
// displace a potentially chosen value; if the instance was never voted
// on, the learners learn a no-op. A same-ballot no-op shortcut would be
// unsafe: if the original Phase2A reached part of the quorum, the ballot
// already carries a value, and a second value at it can split learners.
// A repeated request abandons the round in flight (its Phase1As may have
// been lost) for one at a higher ballot.
func (l *LiveLeader) recover(inst uint64) {
	l.recoveries.Add(1)
	l.gapAttempts[inst]++
	p := &prepare{ballot: l.ballot + l.gapAttempts[inst]}
	l.prepares[inst] = p
	l.top = max(l.top, p.ballot)
	l.propose(Msg{Type: MsgPhase1A, Instance: inst, Ballot: p.ballot})
}

// promised collects the Phase1Bs of a pending recovery and, at quorum,
// proposes the value accepted at the highest ballot — or a no-op.
func (l *LiveLeader) promised(v *MsgView) {
	p := l.prepares[v.Instance]
	if p == nil || v.Ballot != p.ballot {
		return
	}
	if i := slices.IndexFunc(p.promises, func(m Msg) bool { return m.NodeID == v.NodeID }); i >= 0 {
		p.promises[i] = v.Msg()
	} else {
		p.promises = append(p.promises, v.Msg())
	}
	if len(p.promises) < len(l.acceptors)/2+1 {
		return
	}
	delete(l.prepares, v.Instance) // later promises of this round find nothing
	// A promise reports a vote by its nonzero VBallot (ballots start at
	// 1): an accepted no-op has an empty value too, and must win over a
	// value accepted below it.
	chosen := Msg{Value: NoOp}
	for _, r := range p.promises {
		if (r.VBallot > 0 || len(r.Value) > 0) && r.VBallot >= chosen.VBallot {
			chosen = r
		}
	}
	l.propose(Msg{Type: MsgPhase2A, Instance: v.Instance, Ballot: p.ballot,
		ClientID: chosen.ClientID, Seq: chosen.Seq, ClientAddr: chosen.ClientAddr,
		Value: chosen.Value})
}

func (l *LiveLeader) propose(m Msg) {
	for _, a := range l.acceptors {
		l.send(a, m)
	}
}

// --- learner --------------------------------------------------------------

// LiveLearner is the learner role as a dataplane handler: it collects
// Phase2B votes, decides when a quorum agrees on ballot and value,
// remembers what it decided, and routes each decision to the client
// address carried in the winning vote. When wired to a leader it scans
// for instance gaps and asks the leader to re-initiate them (§9.2), at
// most once per GapTimeout per hole.
type LiveLearner struct {
	quorum int
	send   Sender

	// GapTimeout is how long a hole may linger after the learner asked
	// for it before it asks again. Set it before serving.
	GapTimeout time.Duration

	counters    *telemetry.AtomicCounters
	decisions   *atomic.Uint64
	noops       *atomic.Uint64
	lateVotes   *atomic.Uint64
	gapDetected *atomic.Uint64

	mu      sync.Mutex
	leader  string
	votes   map[uint64]map[uint16]Msg
	decided map[uint64][]byte
	highest uint64
	// contiguous is the watermark below which nothing is missing: every
	// instance 1..contiguous is decided, so a gap scan starts above it.
	contiguous uint64
	asked      map[uint64]time.Time

	stop     chan struct{}
	stopOnce sync.Once
}

var _ dataplane.Handler = (*LiveLearner)(nil)
var _ dataplane.BatchHandler = (*LiveLearner)(nil)

// NewLiveLearner returns a learner deciding at quorum votes, asking
// leader (if non-empty) to fill gaps.
func NewLiveLearner(quorum int, leader string, send Sender) *LiveLearner {
	c := telemetry.NewAtomicCounters()
	return &LiveLearner{quorum: quorum, leader: leader, send: send,
		GapTimeout: 50 * time.Millisecond,
		counters:   c,
		decisions:  c.Handle("decided"), noops: c.Handle("noop"),
		lateVotes: c.Handle("late_votes"), gapDetected: c.Handle("gap_detected"),
		votes:   make(map[uint64]map[uint16]Msg),
		decided: make(map[uint64][]byte),
		asked:   make(map[uint64]time.Time),
		stop:    make(chan struct{})}
}

// StatsCounters implements dataplane.StatsReporter.
func (l *LiveLearner) StatsCounters() *telemetry.AtomicCounters { return l.counters }

// SetLeader retargets gap requests after a leader shift.
func (l *LiveLearner) SetLeader(leader string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.leader = leader
}

// DecidedCount returns how many instances have been decided.
func (l *LiveLearner) DecidedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.decided)
}

// Decided returns the value decided for inst.
func (l *LiveLearner) Decided(inst uint64) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.decided[inst]
	return v, ok
}

// Highest returns the highest decided instance.
func (l *LiveLearner) Highest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.highest
}

// Gaps returns the undecided instances below the highest decided one.
func (l *LiveLearner) Gaps() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var gaps []uint64
	for inst := l.contiguous + 1; inst < l.highest; inst++ {
		if _, ok := l.decided[inst]; !ok {
			gaps = append(gaps, inst)
		}
	}
	return gaps
}

// Start launches the gap scanner on the wall clock (no-op without a
// leader). Stop ends it.
func (l *LiveLearner) Start(gapEvery time.Duration) {
	if l.leader == "" {
		return
	}
	go func() {
		tick := time.NewTicker(gapEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case now := <-tick.C:
				l.ScanGaps(now)
			}
		}
	}()
}

// Stop ends the gap scanner. It is idempotent.
func (l *LiveLearner) Stop() { l.stopOnce.Do(func() { close(l.stop) }) }

// ScanGaps runs one gap scan at time now — the body of the Start ticker,
// and what a virtual-time driver schedules on the simulator's clock: ask
// the leader to re-initiate every hole not asked for within GapTimeout.
func (l *LiveLearner) ScanGaps(now time.Time) {
	gaps := l.Gaps()
	l.mu.Lock()
	n := 0
	for _, inst := range gaps {
		_, decided := l.decided[inst]
		if at, ok := l.asked[inst]; decided || ok && now.Sub(at) < l.GapTimeout {
			continue
		}
		l.asked[inst] = now
		gaps[n] = inst
		n++
	}
	leader := l.leader
	l.mu.Unlock()
	l.gapDetected.Add(uint64(n))
	for _, inst := range gaps[:n] {
		l.send(leader, Msg{Type: MsgGapRequest, Instance: inst})
	}
}

// fold applies one Phase2B vote to the quorum state, returning the
// decision to emit when the vote completes a quorum. l.mu is held. Votes
// for decided instances return before the retention copy, so the
// duplicate-vote steady state allocates nothing. A decision needs a
// quorum agreeing on the highest ballot seen AND on the value: correct
// proposers never issue two values at one ballot, but a diverged vote
// stream must not split learners.
func (l *LiveLearner) fold(v *MsgView) (decision Msg, decided bool) {
	if _, done := l.decided[v.Instance]; done {
		l.lateVotes.Add(1)
		return Msg{}, false
	}
	byNode := l.votes[v.Instance]
	if byNode == nil {
		byNode = make(map[uint16]Msg)
		l.votes[v.Instance] = byNode
	}
	byNode[v.NodeID] = v.Msg() // retention copy: the vote outlives the datagram
	var best uint32
	for _, m := range byNode {
		best = max(best, m.VBallot)
	}
	var chosen Msg
	for _, c := range byNode {
		if c.VBallot != best {
			continue
		}
		agree := 0
		for _, m := range byNode {
			if m.VBallot == best && bytes.Equal(m.Value, c.Value) {
				agree++
			}
		}
		if agree >= l.quorum {
			chosen, decided = c, true
			break
		}
	}
	if !decided {
		return Msg{}, false
	}
	l.decided[v.Instance] = chosen.Value
	delete(l.votes, v.Instance)
	delete(l.asked, v.Instance)
	l.highest = max(l.highest, v.Instance)
	for {
		if _, ok := l.decided[l.contiguous+1]; !ok {
			break
		}
		l.contiguous++
	}
	return Msg{Type: MsgDecision, Instance: v.Instance,
		ClientID: chosen.ClientID, Seq: chosen.Seq,
		ClientAddr: chosen.ClientAddr, Value: chosen.Value}, true
}

// emit counts a decision and routes it back to the client carried in
// the winning vote.
func (l *LiveLearner) emit(decision Msg) {
	l.decisions.Add(1)
	if len(decision.Value) == 0 {
		l.noops.Add(1)
	}
	if decision.ClientAddr != "" {
		to := string(decision.ClientAddr)
		decision.ClientAddr = ""
		l.send(to, decision)
	}
}

// HandleDatagram implements dataplane.Handler.
func (l *LiveLearner) HandleDatagram(in []byte, _ *[]byte) ([]byte, bool) {
	var v MsgView
	if DecodeView(in, &v) != nil || v.Type != MsgPhase2B {
		return nil, false
	}
	l.mu.Lock()
	decision, decided := l.fold(&v)
	l.mu.Unlock()
	if decided {
		l.emit(decision)
	}
	return nil, false
}

// HandleBatch implements dataplane.BatchHandler: a chunk of 2B votes
// folds into the quorum map under one acquisition of the learner's
// mutex, the resulting decisions emitted after it is released.
func (l *LiveLearner) HandleBatch(items []*dataplane.BatchItem) {
	for off := 0; off < len(items); off += liveBatchChunk {
		l.foldChunk(items[off:min(off+liveBatchChunk, len(items))])
	}
}

func (l *LiveLearner) foldChunk(items []*dataplane.BatchItem) {
	var decisions [liveBatchChunk]Msg
	var v MsgView
	n := 0
	l.mu.Lock()
	for _, it := range items {
		if DecodeView(it.In, &v) != nil || v.Type != MsgPhase2B {
			continue
		}
		if decision, decided := l.fold(&v); decided {
			decisions[n] = decision
			n++
		}
	}
	l.mu.Unlock()
	for i := 0; i < n; i++ {
		l.emit(decisions[i])
	}
}
