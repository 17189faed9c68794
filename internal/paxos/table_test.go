package paxos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incod/internal/dataplane"
)

// --- the reference model ----------------------------------------------------
//
// refTable is the acceptor table as it was before the vote log: a map of
// heap-allocated per-instance states, each holding a materialized copy of
// the accepted 2A. The rules are the same text; the log and the index
// must answer every stream exactly as it does.

type liveVoteState struct {
	promised uint32
	accepted bool
	prepared bool
	vballot  uint32
	m        Msg
}

func (st *liveVoteState) overwritable() bool { return st.prepared && st.promised > st.vballot }

type refTable struct {
	states    map[uint64]*liveVoteState
	lastVoted uint64
}

func newRefTable() *refTable { return &refTable{states: make(map[uint64]*liveVoteState)} }

func (t *refTable) clone() *refTable {
	out := &refTable{states: make(map[uint64]*liveVoteState, len(t.states)), lastVoted: t.lastVoted}
	for inst, st := range t.states {
		cp := *st
		out.states[inst] = &cp
	}
	return out
}

func (t *refTable) state(inst uint64) *liveVoteState {
	st := t.states[inst]
	if st == nil {
		st = &liveVoteState{}
		t.states[inst] = st
	}
	return st
}

func (t *refTable) accepted(inst uint64) ([]byte, bool) {
	st := t.states[inst]
	if st == nil || !st.accepted {
		return nil, false
	}
	return st.m.Value, true
}

// settled reports whether the lock-free path may answer a 2A for inst.
func (t *refTable) settled(inst uint64) bool {
	st := t.states[inst]
	return st != nil && st.accepted && !st.overwritable()
}

func (t *refTable) processView(v *MsgView, id uint16) (Msg, Outcome) {
	switch v.Type {
	case MsgPhase1A:
		st := t.state(v.Instance)
		if v.Ballot >= st.promised {
			st.promised = v.Ballot
			st.prepared = true
		}
		return t.answer(MsgPhase1B, v.Instance, st, id), Promised
	case MsgPhase2A:
		st := t.state(v.Instance)
		o := Voted
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
		st.m = v.Msg()
		t.lastVoted = max(t.lastVoted, v.Instance)
		return t.answer(MsgPhase2B, v.Instance, st, id), o
	}
	return Msg{}, Ignored
}

func (t *refTable) answer(typ MsgType, inst uint64, st *liveVoteState, id uint16) Msg {
	var out Msg
	if st.accepted {
		out = st.m
		out.VBallot = st.vballot
	}
	out.Type, out.Instance, out.NodeID, out.LastVoted = typ, inst, id, t.lastVoted
	if out.Ballot = st.promised; typ == MsgPhase2B {
		out.Ballot = st.vballot
	}
	return out
}

// --- the differential driver -----------------------------------------------

// tablePair is a table and the model it must be indistinguishable from.
type tablePair struct {
	tab *AcceptorTable
	ref *refTable
}

func newTablePair() tablePair { return tablePair{NewAcceptorTable(), newRefTable()} }

func (p tablePair) clone() tablePair { return tablePair{p.tab.Clone(), p.ref.clone()} }

// step applies one message to both sides and compares every observable:
// the lock-free answer (which must hit exactly when the model says the
// instance is settled), the encoded reply, the outcome, and the
// accessors.
func (p tablePair) step(t testing.TB, v *MsgView) {
	t.Helper()
	const id = 7
	var fast Msg
	hit := p.tab.TryVote(v, id, &fast)
	if want := v.Type == MsgPhase2A && p.ref.settled(v.Instance); hit != want {
		t.Fatalf("TryVote(%v inst %d) = %v, model settled = %v", v.Type, v.Instance, hit, want)
	}
	got, o := p.tab.ProcessView(v, id)
	want, wo := p.ref.processView(v, id)
	if o != wo || !bytes.Equal(AppendMsg(nil, got), AppendMsg(nil, want)) {
		t.Fatalf("%v inst %d ballot %d:\n table %v %+v\n model %v %+v", v.Type, v.Instance, v.Ballot, o, got, wo, want)
	}
	if hit && (o != Reannounced || !bytes.Equal(AppendMsg(nil, fast), AppendMsg(nil, want))) {
		t.Fatalf("TryVote answered %+v, the rules %v %+v", fast, wo, want)
	}
	p.check(t, v.Instance)
}

// check compares the accessors, for inst in particular.
func (p tablePair) check(t testing.TB, inst uint64) {
	t.Helper()
	gv, gok := p.tab.Accepted(inst)
	wv, wok := p.ref.accepted(inst)
	if gok != wok || !bytes.Equal(gv, wv) {
		t.Fatalf("Accepted(%d) = (%d bytes, %v), model (%d bytes, %v)", inst, len(gv), gok, len(wv), wok)
	}
	if p.tab.Instances() != len(p.ref.states) || p.tab.LastVoted() != p.ref.lastVoted {
		t.Fatalf("Instances, LastVoted = %d, %d; model %d, %d",
			p.tab.Instances(), p.tab.LastVoted(), len(p.ref.states), p.ref.lastVoted)
	}
}

// checkAll compares Accepted for every instance the model knows.
func (p tablePair) checkAll(t testing.TB) {
	t.Helper()
	for inst := range p.ref.states {
		p.check(t, inst)
	}
}

// streamGen draws acceptor traffic that keeps colliding with itself:
// few ballots, and instances from a dense run near 0, a dense run ending
// at 2^64-1, and a sparse scatter — so duplicates, lower and equal
// ballots, promise -> recovery overwrites and re-votes all occur.
type streamGen struct {
	rng    *rand.Rand
	dense  uint64
	sparse []uint64
	big    []byte // 65 535 bytes: the largest value and the largest address
}

func newStreamGen(seed int64) *streamGen {
	g := &streamGen{rng: rand.New(rand.NewSource(seed)), big: make([]byte, math.MaxUint16)}
	g.rng.Read(g.big)
	for i := 0; i < 64; i++ {
		g.sparse = append(g.sparse, g.rng.Uint64())
	}
	return g
}

func (g *streamGen) next(v *MsgView) {
	r := g.rng
	*v = MsgView{Type: MsgPhase2A, Ballot: uint32(r.Intn(5)), ClientID: uint16(r.Intn(4)), Seq: r.Uint64()}
	switch n := r.Intn(20); {
	case n < 5:
		v.Type = MsgPhase1A
	case n == 5:
		v.Type = MsgType(r.Intn(9)) // not for an acceptor, or out of range
	}
	switch n := r.Intn(10); {
	case n < 3: // fresh, monotonic: the steady state
		g.dense++
		v.Instance = g.dense
	case n < 6: // back into the dense run, instance 0 included
		v.Instance = uint64(r.Int63n(int64(g.dense + 1)))
	case n < 8:
		v.Instance = math.MaxUint64 - uint64(r.Intn(8))
	default:
		v.Instance = g.sparse[r.Intn(len(g.sparse))]
	}
	switch n := r.Intn(200); {
	case n == 0:
		v.Value, v.ClientAddr = g.big, g.big // one record of 131 093 bytes
	case n < 3:
		v.Value = g.big[:r.Intn(len(g.big))]
	case n < 20:
		v.Value = NoOp
	default:
		v.Value = g.big[:1+r.Intn(40)]
	}
	if v.ClientAddr == nil && r.Intn(3) > 0 {
		v.ClientAddr = fmt.Appendf(nil, "client-%d:%d", r.Intn(9), 1000+r.Intn(9))
	}
}

// TestAcceptorTableMatchesModel drives the log-backed table and the
// map-based model with the same seeded streams. Mid-stream the pair is
// cloned, inside an open chunk, and the two pairs are then driven with
// different streams: each must keep matching its own model, so nothing
// voted after the clone on one side shows on the other.
func TestAcceptorTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := newStreamGen(seed)
		var v MsgView
		p := newTablePair()
		for i := 0; i < 300; i++ { // 300 small records: well inside the first chunk
			g.next(&v)
			if len(v.Value) > 40 {
				v.Value, v.ClientAddr = v.Value[:40], nil
			}
			p.step(t, &v)
		}
		if n := len(*p.tab.log.Load()); n != 1 {
			t.Fatalf("seed %d: clone point is not inside the first open chunk (%d chunks)", seed, n)
		}
		q := p.clone()
		q.checkAll(t)
		gq := newStreamGen(seed + 1000)
		for i := 0; i < 4000; i++ {
			g.next(&v)
			p.step(t, &v)
			gq.next(&v)
			q.step(t, &v)
		}
		p.checkAll(t)
		q.checkAll(t)
		// A clone taken past sealed chunks shares them and still diverges.
		if n := len(*p.tab.log.Load()); n < 3 {
			t.Fatalf("seed %d: the stream rolled only %d chunks", seed, n)
		}
		r := p.clone()
		for i := 0; i < 500; i++ {
			g.next(&v)
			r.step(t, &v)
		}
		p.checkAll(t)
		r.checkAll(t)
	}
}

// FuzzAcceptorTable decodes an op stream from the fuzz bytes — 12 bytes
// an op: type, instance class and offset, ballot, lengths, a clone flag —
// and holds the table to the model on it.
func FuzzAcceptorTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{4, 0, 1, 1, 5, 0, 0, 0, 0, 0, 0, 0}, 3))                   // vote, re-vote, re-vote
	f.Add([]byte{4, 0, 1, 1, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, // vote, promise above,
		4, 0, 1, 3, 9, 0, 0, 0, 0, 0, 0, 0, 4, 0, 1, 1, 9, 0, 0, 0, 0, 0, 0, 0}) // recover, stale 2A
	f.Add([]byte{4, 1, 0, 2, 255, 255, 255, 255, 1, 0, 0, 0, 2, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}) // 2^64-1, both fields at 65 535, cloned
	f.Fuzz(func(t *testing.T, data []byte) {
		big := bytes.Repeat([]byte("0123456789abcdef"), math.MaxUint16/16+1)
		p := newTablePair()
		pairs := []tablePair{p}
		var v MsgView
		for ; len(data) >= 12 && len(pairs) < 4; data = data[12:] {
			op := data[:12]
			v = MsgView{Type: MsgType(op[0] % 8), Instance: uint64(op[2]), Ballot: uint32(op[3] % 8),
				ClientID: uint16(op[9]), Seq: uint64(op[10])}
			switch op[1] % 3 {
			case 1:
				v.Instance = math.MaxUint64 - v.Instance
			case 2:
				v.Instance *= 0x0101010101010101 // sparse, colliding low bits
			}
			v.Value = big[:binary.LittleEndian.Uint16(op[4:])]
			v.ClientAddr = big[:binary.LittleEndian.Uint16(op[6:])]
			target := pairs[int(op[11])%len(pairs)]
			if op[8]&1 != 0 {
				target = target.clone()
				pairs = append(pairs, target)
			}
			target.step(t, &v)
		}
		for _, q := range pairs {
			q.checkAll(t)
		}
	})
}

// probe is how many slots past its home find met inst at: 0 means the
// instance sits at its home slot.
func probe(t *testing.T, x *voteIndex, inst uint64) uint64 {
	t.Helper()
	slot, ref := x.find(inst)
	if ref == 0 || x.slots[2*slot].Load() != inst {
		t.Fatalf("instance %d is not in the index", inst)
	}
	return (slot - inst) & x.mask
}

// TestVoteIndexRunsAtHome votes runs of 10 000 instances at strides 1
// to 4 from bases near 0, in the middle of the space and across the wrap
// from 2^64-1 to 0, and after each of the run's index generations looks
// every instance up. A run at an odd stride shorter than the index has a
// home slot of its own for every instance, so each sits at its home; an
// even-stride run shares homes once it spans more than the index, and an
// instance then lies at most stride-1 slots past its home (the free
// neighbours between the run's homes).
func TestVoteIndexRunsAtHome(t *testing.T) {
	const n = 10_000 // the index grows 256 -> 16 384 slots
	for stride := uint64(1); stride <= 4; stride++ {
		for _, base := range []uint64{0, 1, 0x0123_4567_89ab_cdef, math.MaxUint64 - n/2} {
			tab := NewAcceptorTable()
			var voted []uint64
			check := func(x *voteIndex) {
				for _, inst := range voted {
					if p := probe(t, x, inst); stride%2 == 1 && p != 0 || p >= stride {
						t.Fatalf("stride %d base %d, %d slots: instance %d lies %d slots past its home",
							stride, base, len(x.slots)/2, inst, p)
					}
				}
			}
			generations := 0
			for k := uint64(0); k < n; k++ {
				x := tab.index.Load()
				inst := base + k*stride
				v := MsgView{Type: MsgPhase2A, Instance: inst, Ballot: 1, Value: []byte("v")}
				if _, o := tab.ProcessView(&v, 1); o != Voted {
					t.Fatalf("instance %d: %v", inst, o)
				}
				if x != nil && tab.index.Load() != x {
					check(x) // the generation that just filled
					generations++
				}
				voted = append(voted, inst)
			}
			check(tab.index.Load())
			if generations < 5 {
				t.Fatalf("stride %d: the run grew the index only %d times", stride, generations)
			}
		}
	}
}

// TestVoteIndexStridedWorstCase drives the instances identity placement
// is weakest against — a stride of 2^16, a multiple of every index size
// the run reaches, so all of them share one home slot — interleaved with
// a dense run whose homes the pile-up spills over, re-votes, promises,
// recoveries and clones, through the table and the model: slow probes,
// but every answer the model's.
func TestVoteIndexStridedWorstCase(t *testing.T) {
	const stride = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := []tablePair{newTablePair()}
	var v MsgView
	var strided, dense uint64
	for i := 0; i < 3000; i++ {
		v = MsgView{Type: MsgPhase2A, Ballot: uint32(1 + rng.Intn(3)), ClientID: 1, Seq: uint64(i),
			Value: fmt.Appendf(nil, "op-%d", i)}
		switch n := rng.Intn(10); {
		case n < 4:
			strided++
			v.Instance = strided * stride
		case n < 8:
			dense++
			v.Instance = dense
		case n < 9: // back onto a strided instance: a re-vote, or a promise
			v.Instance = uint64(rng.Int63n(int64(strided+1))) * stride
			if rng.Intn(2) == 0 {
				v.Type = MsgPhase1A
			}
		default:
			v.Instance = uint64(rng.Int63n(int64(dense + 1)))
			if rng.Intn(2) == 0 {
				v.Type = MsgPhase1A
			}
		}
		target := pairs[rng.Intn(len(pairs))]
		if i%750 == 749 {
			target = target.clone()
			pairs = append(pairs, target)
		}
		target.step(t, &v)
	}
	for _, q := range pairs {
		q.checkAll(t)
		var piled, longest uint64
		for inst := range q.ref.states {
			if inst%stride == 0 {
				piled++
				longest = max(longest, probe(t, q.tab.index.Load(), inst))
			}
		}
		if piled < 300 || longest < piled/2 {
			t.Fatalf("%d strided instances, the farthest %d slots past its home: the pile-up did not happen", piled, longest)
		}
	}
}

// tortureValue is the only value the torture's owner ever proposes for
// inst at ballot: a reader can judge any answer on its own.
func tortureValue(inst uint64, ballot uint32) []byte {
	return bytes.Repeat(fmt.Appendf(nil, "<%d@%d>", inst, ballot), 60) // ~0.5 KB: chunks roll
}

// TestAcceptorTableTorture: readers hammer TryVote while the owner
// votes, promises, recovers, grows the index, rolls chunks and clones
// (and votes on the clones, whose sealed chunks the readers' table
// shares). A reader may miss; it may never see anything but a value the
// owner accepted for that instance at that ballot. Run under -race.
func TestAcceptorTableTorture(t *testing.T) {
	const instances = 3000
	tab := NewAcceptorTable()
	var top atomic.Uint64 // highest instance the owner has voted
	var stop atomic.Bool
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var out Msg
			for !stop.Load() {
				inst := 1 + uint64(rng.Int63n(int64(top.Load()+8)))
				v := MsgView{Type: MsgPhase2A, Instance: inst, Ballot: 1, Value: []byte("dup")}
				if !tab.TryVote(&v, 9, &out) {
					continue
				}
				hits.Add(1)
				if out.Type != MsgPhase2B || out.Instance != inst || out.NodeID != 9 || out.Ballot != out.VBallot ||
					(out.VBallot != 1 && out.VBallot != 3) || !bytes.Equal(out.Value, tortureValue(inst, out.VBallot)) ||
					string(out.ClientAddr) != fmt.Sprint("client-", inst) {
					t.Errorf("instance %d: a reader saw %+v", inst, out)
					return
				}
			}
		}(int64(r))
	}
	vote := func(tab *AcceptorTable, typ MsgType, inst uint64, ballot uint32, want Outcome) {
		v := MsgView{Type: typ, Instance: inst, Ballot: ballot,
			ClientAddr: fmt.Append(nil, "client-", inst), Value: tortureValue(inst, ballot)}
		if _, o := tab.ProcessView(&v, 9); o != want {
			t.Fatalf("%v inst %d ballot %d: %v, want %v", typ, inst, ballot, o, want)
		}
	}
	for inst := uint64(1); inst <= instances; inst++ {
		vote(tab, MsgPhase2A, inst, 1, Voted)
		top.Store(inst)
		if back := inst / 2; inst%3 == 0 && back > 0 { // recover an older instance at ballot 3
			var st voteRecord
			if tab.lookup(back, &st); st.vballot == 1 {
				vote(tab, MsgPhase1A, back, 3, Promised)
				vote(tab, MsgPhase2A, back, 3, Recovered)
			}
		}
		if inst%500 == 0 {
			c := tab.Clone()
			for k := uint64(1); k <= 50; k++ { // private to the clone: readers must never see it
				v := MsgView{Type: MsgPhase2A, Instance: instances + k, Ballot: 2, Value: []byte("clone only")}
				c.ProcessView(&v, 9)
			}
			if c.Instances() != tab.Instances()+50 {
				t.Fatalf("clone holds %d instances, the table %d", c.Instances(), tab.Instances())
			}
		}
	}
	// On a loaded host the readers may not have run yet: give them the
	// finished table rather than stop them before their first look.
	for deadline := time.Now().Add(5 * time.Second); hits.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if chunks, slots := len(*tab.log.Load()), len(tab.index.Load().slots)/2; chunks < 4 || slots < 256<<3 {
		t.Fatalf("the run rolled %d chunks and grew the index to %d slots: want >= 3 rolls and generations", chunks, slots)
	}
	if hits.Load() == 0 {
		t.Fatal("no reader ever hit")
	}
	for inst := uint64(instances + 1); inst <= instances+50; inst++ {
		if _, ok := tab.Accepted(inst); ok {
			t.Fatalf("a clone's vote on %d reached the table", inst)
		}
	}
}

// A batch of settled re-votes never takes the role mutex (held here for
// the whole call), and the gauges follow the table the role holds.
func TestAcceptorBatchOfRevotesIsLockFree(t *testing.T) {
	a := NewLiveAcceptor(1, nil, func(string, Msg) {})
	var dgs [][]byte
	for inst := uint64(1); inst <= 40; inst++ {
		dgs = append(dgs, Encode(Msg{Type: MsgPhase2A, Instance: inst, Ballot: 1, Value: []byte("v")}))
	}
	a.HandleBatch(mkItems(dgs))
	if c := a.StatsCounters(); c.Get("instances") != 40 || c.Get("log_bytes") != 40*(recordHeader+1) || c.Get("voted") != 40 {
		t.Fatalf("after 40 votes: %v", c.Snapshot())
	}
	items := mkItems(dgs)
	a.mu.Lock()
	a.HandleBatch(items)
	a.mu.Unlock()
	for i, it := range items {
		var v MsgView
		if DecodeView(it.Out, &v) != nil || v.Type != MsgPhase2B || v.Instance != uint64(i+1) {
			t.Fatalf("item %d answered %q", i, it.Out)
		}
	}
	if got := a.StatsCounters().Get("reannounce"); got != 40 {
		t.Fatalf("reannounce = %d, want 40", got)
	}
	held := a.BeginHandoff(dataplane.HandlerFunc(func([]byte, *[]byte) ([]byte, bool) { return nil, false }))
	if c := a.StatsCounters(); c.Get("instances") != 0 || c.Get("log_bytes") != 0 {
		t.Fatalf("a role that surrendered its table reports %v", c.Snapshot())
	}
	a.EndHandoff(held)
	if got := a.StatsCounters().Get("instances"); got != 40 {
		t.Fatalf("instances after the handback = %d, want 40", got)
	}
}
