package paxos

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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

// voteRecord is one instance's acceptor state: the header the rules
// read, and the log bytes it was decoded from, whose tail is what a
// response carries of the vote (nil before the instance's first record).
type voteRecord struct {
	promised uint32
	vballot  uint32
	accepted bool
	// prepared: promised was established by an explicit Phase1A, which
	// entitles the matching Phase2A to overwrite a lower vote (its
	// proposer adopted the highest value of a promise quorum).
	prepared bool
	raw      []byte
}

// overwritable reports whether a Phase2A at st.promised may replace the
// accepted vote.
func (st *voteRecord) overwritable() bool {
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
// the NIC tier); ANY goroutine may answer a Phase2A for a settled
// instance via TryVote.
//
// Memory model. State is an append-only log of pointer-free records in
// fixed-size chunks (the GC never scans it) and one open-addressing index
// instance -> ref. Every state change — promise, vote, recovery
// overwrite — appends a whole record and re-points the index; bytes
// below the log's end are never written again. The owner publishes
// chunk list -> record -> key -> ref through atomics, and ref 0 marks an
// empty slot (so every uint64 is a valid key): a reader that sees a ref
// sees its key, a complete record and the chunk holding it. A reader on
// a retired index generation or a stale top misses newer instances, and
// a ref without refSettled (promised only, or overwritable after a
// Phase1A) is a miss too; a miss only costs a trip to the owner's locked
// path. An old ref still answers with the old vote: a duplicate of a
// message this acceptor validly sent, which Paxos tolerates at any
// delay — a learner counts it only toward a quorum that voted that very
// (ballot, value), and such a quorum means the value was chosen. Clone
// shares the sealed chunks, which neither side can write, and copies the
// open one and the index, so later votes are private to their side. The
// table never shrinks: trimming needs a decided watermark from the
// learners, a message the wire format does not have (ROADMAP item H).
//
// Placement. The index is linearly probed from the home slot inst & mask:
// the instance itself, as P4xos indexes its register arrays. A leader
// numbers instances consecutively, so a fresh vote takes the slot beside
// the previous one (four slots share a cache line, and the prefetcher
// follows the run), a re-vote a thousand instances back lands a few
// pages back, and a run shorter than the index at any odd stride has a
// home of its own for every instance: no collision at all. An even-stride
// run shares homes once it spans more than the index, and an instance
// then lies at most stride-1 slots past its home. What identity gives up
// is a hash's defence against chosen instance numbers: instances that
// share their low bits (a stride of the index size) pile into one probe
// run, and each vote among them walks it. That costs time, never a wrong
// answer: find stops at the key or at an empty slot, and growth at 7/8
// load keeps one. Such a sender can already grow the table without
// bound, which only the watermark above would stop.
type AcceptorTable struct {
	lastVoted atomic.Uint64
	index     atomic.Pointer[voteIndex] // current generation; nil until the first record
	log       atomic.Pointer[[][]byte]  // chunks, the last one open; nil until the first record
	top       atomic.Uint64             // highest instance in the index: above it nothing probes

	count int    // instances; owner-serialized, like end
	end   uint64 // log position of the next record (chunk number << logChunkShift | offset)
}

// voteIndex is one generation of the index: slot i is (inst, ref) at
// slots[2i], slots[2i+1]. A grown generation is published whole and the
// old one left intact for stale readers.
type voteIndex struct {
	mask  uint64
	slots []atomic.Uint64
}

const (
	// A chunk holds the largest record: header plus two 65 535-byte fields.
	logChunkShift = 18
	logChunkSize  = 1 << logChunkShift
	// A record is promised(4) vballot(4) flags(1), then the vote:
	// clientID(2) seq(8) len(addr)(2) len(value)(2) addr value.
	recordVote, recordHeader = 9, 23
	// A ref is a log position << 2 with refLive set (0 is the empty
	// slot) and refSettled when TryVote may answer from the record.
	refLive, refSettled = 1, 2
)

// find probes for inst from its home slot, inst & mask: the slot holding
// it (ref != 0), or the empty slot it would take (ref == 0).
func (x *voteIndex) find(inst uint64) (slot, ref uint64) {
	for i := inst & x.mask; ; i = (i + 1) & x.mask {
		if ref = x.slots[2*i+1].Load(); ref == 0 || x.slots[2*i].Load() == inst {
			return i, ref
		}
	}
}

// NewAcceptorTable returns an empty table; it allocates on its first record.
func NewAcceptorTable() *AcceptorTable { return &AcceptorTable{} }

// Instances returns how many per-instance records the table holds — the
// size of a state handoff.
func (t *AcceptorTable) Instances() int { return t.count }

// Clone copies the table: the modeled DMA of acceptor state into NIC
// memory, and the state transfer to a replacement acceptor. It costs the
// index and one chunk, whatever the history.
func (t *AcceptorTable) Clone() *AcceptorTable {
	out := &AcceptorTable{count: t.count, end: t.end}
	out.lastVoted.Store(t.lastVoted.Load())
	out.top.Store(t.top.Load())
	if x := t.index.Load(); x != nil {
		log := slices.Clone(*t.log.Load())
		open := len(log) - 1
		log[open] = make([]byte, logChunkSize)
		copy(log[open], (*t.log.Load())[open][:t.end-uint64(open)<<logChunkShift])
		out.log.Store(&log)
		nx := &voteIndex{mask: x.mask, slots: make([]atomic.Uint64, len(x.slots))}
		for i := range x.slots {
			nx.slots[i].Store(x.slots[i].Load())
		}
		out.index.Store(nx)
	}
	return out
}

// record decodes the header of the record ref points at into st.
func (t *AcceptorTable) record(ref uint64, st *voteRecord) {
	pos := ref >> 2
	b := (*t.log.Load())[pos>>logChunkShift][pos&(logChunkSize-1):]
	st.promised, st.vballot = binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	st.accepted, st.prepared, st.raw = b[8]&1 != 0, b[8]&2 != 0, b
}

// lookup reads inst's record into st and returns the index slot's ref
// word; nil means the table has no record of inst. Owner-serialized.
func (t *AcceptorTable) lookup(inst uint64, st *voteRecord) *atomic.Uint64 {
	if x := t.index.Load(); x != nil && inst <= t.top.Load() {
		if i, ref := x.find(inst); ref != 0 {
			t.record(ref, st)
			return &x.slots[2*i+1]
		}
	}
	return nil
}

// put appends st as inst's new record — carrying the vote in v, or with
// a nil v the one st was read with — and points the index at it (slot
// is what lookup returned). Owner-serialized.
func (t *AcceptorTable) put(inst uint64, st *voteRecord, slot *atomic.Uint64, v *MsgView) {
	var log [][]byte
	if p := t.log.Load(); p != nil {
		log = *p
	}
	n := recordHeader
	if v != nil {
		n += len(v.ClientAddr) + len(v.Value)
	} else if st.raw != nil {
		_, n = voteEnds(st.raw)
	}
	if t.end+uint64(n) > uint64(len(log))<<logChunkShift { // seal, open the next chunk
		t.end = uint64(len(log)) << logChunkShift
		grown := append(log[:len(log):len(log)], make([]byte, logChunkSize))
		t.log.Store(&grown)
		log = grown
	}
	b := log[t.end>>logChunkShift][t.end&(logChunkSize-1):][:n:n]
	binary.LittleEndian.PutUint32(b, st.promised)
	binary.LittleEndian.PutUint32(b[4:], st.vballot)
	if b[8] = 0; st.accepted {
		b[8] = 1
	}
	if st.prepared {
		b[8] |= 2
	}
	if v != nil {
		binary.LittleEndian.PutUint16(b[9:], v.ClientID)
		binary.LittleEndian.PutUint64(b[11:], v.Seq)
		binary.LittleEndian.PutUint16(b[19:], uint16(len(v.ClientAddr)))
		binary.LittleEndian.PutUint16(b[21:], uint16(len(v.Value)))
		copy(b[recordHeader+copy(b[recordHeader:], v.ClientAddr):], v.Value)
	} else if st.raw != nil {
		copy(b[recordVote:], st.raw[recordVote:n])
	}
	st.raw = b
	ref := t.end<<2 | refLive
	if st.accepted && !st.overwritable() {
		ref |= refSettled
	}
	t.end += uint64(n)
	if slot != nil {
		slot.Store(ref)
		return
	}
	x := t.index.Load()
	if x == nil || (t.count+1)*16 >= len(x.slots)*7 {
		x = t.grow(x)
	}
	i, _ := x.find(inst)
	x.slots[2*i].Store(inst)
	x.slots[2*i+1].Store(ref)
	t.count++
	if inst > t.top.Load() {
		t.top.Store(inst)
	}
}

// grow publishes a generation of twice the slots carrying every entry
// (put grows at 7/8 load). It walks the old slots in order, and an
// entry's new home is its old one or that plus the old size, so a dense
// run is copied as two sequential streams.
func (t *AcceptorTable) grow(old *voteIndex) *voteIndex {
	size := 256
	if old != nil {
		size = len(old.slots) // two words per slot: this doubles
	}
	x := &voteIndex{mask: uint64(size - 1), slots: make([]atomic.Uint64, 2*size)}
	if old != nil {
		for i := 0; i < len(old.slots); i += 2 {
			if ref := old.slots[i+1].Load(); ref != 0 {
				inst := old.slots[i].Load()
				j, _ := x.find(inst)
				x.slots[2*j].Store(inst)
				x.slots[2*j+1].Store(ref)
			}
		}
	}
	t.index.Store(x)
	return x
}

// TryVote answers a Phase2A for a settled instance without any lock,
// from a record that is never written after publication; the only
// per-call fields are the responder identity and the last-voted
// piggyback (a stale one is harmless: the leader folds the maximum).
// The vote is written to out. false — no record, not settled, or not a
// 2A — sends the caller to the locked path.
func (t *AcceptorTable) TryVote(v *MsgView, id uint16, out *Msg) bool {
	x := t.index.Load()
	if v.Type != MsgPhase2A || x == nil || v.Instance > t.top.Load() {
		return false
	}
	_, ref := x.find(v.Instance)
	if ref&refSettled == 0 {
		return false
	}
	var st voteRecord
	t.record(ref, &st)
	t.answer(out, MsgPhase2B, v.Instance, &st, id)
	return true
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
// A vote or a new promise copies once, into the log; re-votes and
// repeated promises write nothing. The response aliases the log.
func (t *AcceptorTable) ProcessView(v *MsgView, id uint16) (resp Msg, o Outcome) {
	if v.Type != MsgPhase1A && v.Type != MsgPhase2A {
		return resp, Ignored
	}
	var st voteRecord
	slot := t.lookup(v.Instance, &st)
	typ := MsgPhase1B
	switch {
	case v.Type == MsgPhase1A:
		o = Promised
		if v.Ballot >= st.promised && (slot == nil || !st.prepared || v.Ballot > st.promised) {
			st.promised, st.prepared = v.Ballot, true
			t.put(v.Instance, &st, slot, nil) // unsettles a vote below: the recovery 2A must reach the rules
		}
	case st.accepted && (!st.overwritable() || v.Ballot != st.promised):
		typ, o = MsgPhase2B, Reannounced
	case v.Ballot < st.promised:
		o = Rejected
	default:
		if typ, o = MsgPhase2B, Voted; st.accepted {
			o = Recovered
		}
		st = voteRecord{promised: v.Ballot, vballot: v.Ballot, accepted: true}
		if v.Instance > t.lastVoted.Load() {
			t.lastVoted.Store(v.Instance)
		}
		t.put(v.Instance, &st, slot, v) // the retention copy: state outlives the datagram
	}
	t.answer(&resp, typ, v.Instance, &st, id)
	return resp, o
}

// answer builds the response for st under identity id in out: a Phase2B
// at the vote's ballot or a Phase1B at the promise, carrying the retained
// vote when there is one. What it carries aliases the log, capped so
// that an append cannot reach the next record.
func (t *AcceptorTable) answer(out *Msg, typ MsgType, inst uint64, st *voteRecord, id uint16) {
	out.Type, out.Instance, out.NodeID, out.LastVoted = typ, inst, id, t.lastVoted.Load()
	if out.Ballot = st.promised; typ == MsgPhase2B {
		out.Ballot = st.vballot
	}
	out.VBallot, out.ClientID, out.Seq, out.ClientAddr, out.Value = 0, 0, 0, "", nil
	if b := st.raw; st.accepted {
		out.VBallot = st.vballot
		out.ClientID, out.Seq = binary.LittleEndian.Uint16(b[9:]), binary.LittleEndian.Uint64(b[11:])
		v, end := voteEnds(b)
		out.ClientAddr, out.Value = logAddr(b[recordHeader:v]), b[v:end:end]
	}
}

// voteEnds returns where in record b the client address ends and where
// the value, and with it the record, ends.
func voteEnds(b []byte) (addr, value int) {
	addr = recordHeader + int(binary.LittleEndian.Uint16(b[19:]))
	return addr, addr + int(binary.LittleEndian.Uint16(b[21:]))
}

// logAddr hands a record's address bytes out as the string a Msg carries
// without copying them. The package's one unsafe: sound because log
// bytes are never written once their record is reachable, and the string
// keeps its chunk alive like any other reference into it.
func logAddr(b []byte) simnet.Addr {
	return simnet.Addr(unsafe.String(unsafe.SliceData(b), len(b)))
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

	// table is an atomic pointer so the lock-free Phase2A path can reach
	// the table without the mutex, which serializes all mutation and the
	// handoff swap. A reader that loaded the pointer just before
	// BeginHandoff swapped it may answer a straggler from the surrendered
	// table while the tier serves its clone — safe by the duplicate
	// argument on AcceptorTable: whatever a settled record holds is a
	// vote this acceptor sent.
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
// datagram the role processed, by Outcome, and two gauges — the records
// its table holds and the length of its log (nothing while the other
// role holds the state) — read here so that no vote pays for them.
func (a *LiveAcceptor) StatsCounters() *telemetry.AtomicCounters {
	a.mu.Lock()
	a.counters.Handle("instances").Store(uint64(a.table.Load().count))
	a.counters.Handle("log_bytes").Store(a.table.Load().end)
	a.mu.Unlock()
	return a.counters
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
// without the role mutex via TryVote.
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

// liveBatchChunk is the learner's unit of batch work: per-chunk scratch
// state lives in a fixed stack array, like the KVS handler's.
const liveBatchChunk = 64

// HandleBatch implements dataplane.BatchHandler: the items are answered
// in order, as the same datagrams one by one would be. Settled re-votes
// are answered lock-free as they come; the first item TryVote misses
// starts a locked run, so a batch of re-votes never touches the role
// mutex and a batch of fresh votes takes it once per run.
func (a *LiveAcceptor) HandleBatch(items []*dataplane.BatchItem) {
	var v MsgView
	var resp Msg
	var count [numOutcomes]uint64
	tab := a.table.Load()
	for i := 0; i < len(items); {
		if it := items[i]; DecodeView(it.In, &v) != nil {
			i++
		} else if tab.TryVote(&v, a.id, &resp) {
			// Off a table BeginHandoff has swapped since, this still goes
			// out (see the field comment).
			a.emit(it, &resp, Reannounced, &count)
			i++
		} else {
			i += a.lockedRun(items[i:], &count)
			tab = a.table.Load()
		}
	}
	for o := Promised; o < numOutcomes; o++ {
		if count[o] > 0 {
			a.outcomes[o].Add(count[o])
		}
	}
}

// lockedRun processes the head of items — at most lockedRunMax, re-votes
// among them included: cheaper than retaking the lock — under one
// acquisition of the role's mutex, with reply encoding and learner
// fan-out after it, and returns how many items that was.
func (a *LiveAcceptor) lockedRun(items []*dataplane.BatchItem, count *[numOutcomes]uint64) int {
	const lockedRunMax = 16
	var v MsgView
	var resps [lockedRunMax]Msg
	var outs [lockedRunMax]Outcome // Ignored: nothing to send from here
	items = items[:min(len(items), lockedRunMax)]
	a.mu.Lock()
	d, tab := a.delegate, a.table.Load()
	for i, it := range items {
		if DecodeView(it.In, &v) != nil {
			continue
		}
		if d == nil {
			resps[i], outs[i] = tab.ProcessView(&v, a.id)
		} else if out, ok := d.HandleDatagram(it.In, it.Scratch); ok {
			// Handoff in effect: stragglers route to the tier's copy, which
			// fans its own votes out, with the role mutex held across the
			// run (lock order: role, tier).
			it.Out = out
		}
	}
	a.mu.Unlock()
	for i, it := range items {
		if outs[i] != Ignored {
			a.emit(it, &resps[i], outs[i], count)
		}
	}
	return len(items)
}

// emit sends one answer: to the learners when it is a vote, and to the
// source through the item's scratch buffer.
func (a *LiveAcceptor) emit(it *dataplane.BatchItem, resp *Msg, o Outcome, count *[numOutcomes]uint64) {
	count[o]++
	if o.Vote() {
		a.fanOut(resp)
	}
	it.Out, _ = a.reply(resp, it.Scratch)
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
