package chaos

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"incod/internal/daemon"
	"incod/internal/dataplane"
	"incod/internal/dns"
	"incod/internal/kvs"
	"incod/internal/nictier"
	"incod/internal/paxos"
	"incod/internal/simhost"
	"incod/internal/simnet"
)

// ServerAddr is where every stack's serving node lives on the simulated
// network.
const ServerAddr simnet.Addr = "server"

// StackConfig parameterizes one simulated serving stack.
type StackConfig struct {
	// Link is the default link between every pair of nodes.
	Link simnet.LinkConfig
	// Faults is the chaos plan installed on the network.
	Faults simnet.FaultPlan
	// BatchWindow batches deliveries at the server (0 = single-datagram).
	BatchWindow time.Duration
	// Trace, when set, receives one line per packet event — the replay
	// artifact for a violating seed.
	Trace io.Writer
}

// attachTrace installs the network's one tracer: it folds every packet
// event into the returned hash, writes one line per event to w when set,
// and shows every datagram to sent (if set) as it enters the network.
func attachTrace(net *simnet.Network, w io.Writer, sent func(payload []byte)) *traceHash {
	h := new(traceHash)
	net.SetTracer(func(kind string, at simnet.Time, src, dst simnet.Addr, payload []byte) {
		h.fold(kind, at, src, dst, payload)
		if sent != nil && kind == simnet.TraceSend {
			sent(payload)
		}
		if w != nil {
			fmt.Fprintf(w, "%12v %-14s %s -> %s  %d bytes\n",
				time.Duration(at), kind, src, dst, len(payload))
		}
	})
	return h
}

// traceHash is an order-sensitive FNV-1a fold of every packet event on
// one network: kind, virtual time, endpoints and payload bytes. Two runs
// with the same seed and plan produce the same hash; any divergence in
// content or interleaving changes it, which is the determinism check the
// sweep makes. It reads 0 until the first event.
type traceHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *traceHash) fold(kind string, at simnet.Time, src, dst simnet.Addr, payload []byte) {
	x := uint64(*h)
	if x == 0 {
		x = fnvOffset
	}
	x = fnvString(x, kind)
	for i := 0; i < 8; i++ {
		x = fnvByte(x, byte(at>>(8*i)))
	}
	x = fnvString(x, string(src))
	x = fnvString(x, string(dst))
	for _, b := range payload {
		x = fnvByte(x, b)
	}
	*h = traceHash(x)
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return fnvByte(h, 0xff)
}

// tickEvery is the orchestrator's period on the virtual clock. Its
// policy is the daemon default (nil): a threshold policy that holds at
// zero observed load, so placement is pin-driven.
const tickEvery = 500 * time.Microsecond

// runAndDrain advances the simulation by d, cancels the periodic drivers
// (orchestrator ticks, gap scans, workload generators), then drains every
// remaining in-flight event so all replies land before assertions run.
func runAndDrain(sim *simnet.Simulator, d time.Duration, stops ...func()) {
	sim.RunFor(d)
	for _, stop := range stops {
		if stop != nil {
			stop()
		}
	}
	sim.Run()
}

// chaosValue is the value of the i'th preloaded key.
func chaosValue(i int) string { return fmt.Sprintf("value-%d-%08x", i, uint32(i)*2654435761) }

// preloadKVS installs n immutable entries into store.
func preloadKVS(store *kvs.ShardedStore, n int) {
	for i := 0; i < n; i++ {
		store.Set(kvs.SequentialKey(i), kvs.Entry{Flags: uint32(i), Value: []byte(chaosValue(i))})
	}
}

// --- KVS and DNS ----------------------------------------------------------

// ServingStack is a live host handler with its offload tier behind a
// CrashableTier, served by a simhost.Node and placed by a real
// orchestrator, all on one simulated network.
type ServingStack struct {
	Sim      *simnet.Simulator
	Net      *simnet.Network
	Tier     *CrashableTier
	Node     *simhost.Node
	Orch     *daemon.Orchestrator
	StopTick func()
	trace    *traceHash
}

// newServingStack wires h and its tier up as service name. Placement
// starts on the host.
func newServingStack(seed int64, cfg StackConfig, name string, h dataplane.Handler, tier nictier.Tier) *ServingStack {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.Link)
	net.SetFaultPlan(cfg.Faults)
	s := &ServingStack{Sim: sim, Net: net, Tier: NewCrashableTier(tier), trace: attachTrace(net, cfg.Trace, nil)}
	s.Node = simhost.NewNode(net, ServerAddr, h, cfg.BatchWindow, nil)
	s.Orch, s.StopTick = simhost.Orchestrate(sim, tickEvery, daemon.ServiceConfig{
		Service: nictier.NewService(name, s.Node, s.Tier),
	}, nil)
	return s
}

// checkBooks holds a node's engine to its own books once the run has
// drained: it handled every datagram it read, dropped none, failed no
// read or write, and holds its receive slots and no other buffer. Where
// every request gets an answer (answersAll: KVS and DNS), it also sent
// one reply per datagram it handled.
func checkBooks(n *simhost.Node, answersAll bool) error {
	st := n.Stats()
	switch {
	case st.Received != st.Handled:
		return fmt.Errorf("%s: engine read %d datagrams and handled %d", n.Addr(), st.Received, st.Handled)
	case st.Dropped+st.BadSourceDrops+st.ReadErrors+st.WriteErrors != 0:
		return fmt.Errorf("%s: engine dropped %d datagrams (%d for a bad source), failed %d reads and %d writes",
			n.Addr(), st.Dropped+st.BadSourceDrops, st.BadSourceDrops, st.ReadErrors, st.WriteErrors)
	case st.BuffersInFlight != int64(st.RxBatch):
		return fmt.Errorf("%s: engine holds %d buffers, for %d receive slots", n.Addr(), st.BuffersInFlight, st.RxBatch)
	case answersAll && st.Replies != st.Handled:
		return fmt.Errorf("%s: engine handled %d datagrams and sent %d replies", n.Addr(), st.Handled, st.Replies)
	}
	return nil
}

// kvsHandler is the memcached host software over n preloaded entries.
func kvsHandler(n int) *kvs.Handler {
	store := kvs.NewShardedStore(1, 1<<15)
	preloadKVS(store, n)
	return kvs.NewHandler(store)
}

// NewKVSStack is the KVS stack with n preloaded entries: kvs.Handler and
// the board-default LaKe tier, whose table holds memory only for what it
// caches, so a stack build and a Park reset cost microseconds, and no
// property relies on the tier evicting.
func NewKVSStack(seed int64, cfg StackConfig, n int) *ServingStack {
	h := kvsHandler(n)
	return newServingStack(seed, cfg, "kvs", h, nictier.NewKVS(h))
}

// NewDNSStack is the Emu-DNS stack: a zone of n sequentially populated
// names, its host handler and its answer-table tier.
func NewDNSStack(seed int64, cfg StackConfig, n int) *ServingStack {
	zone := dns.NewZone()
	zone.PopulateSequential(n)
	return newServingStack(seed, cfg, "dns", dns.NewHandler(zone), nictier.NewDNS(zone))
}

// --- Oracle ---------------------------------------------------------------

// Oracle is a fault-free replica of a stack's host handler: feed it the
// same request bytes and it produces the reply the host software would
// have sent — the byte-exactness reference for every serving property.
type Oracle struct {
	h       dataplane.Handler
	scratch []byte
	memo    map[uint16][]byte
}

// NewKVSOracle replicates a KVS stack preloaded with n entries.
func NewKVSOracle(n int) *Oracle {
	return &Oracle{h: kvsHandler(n), memo: make(map[uint16][]byte)}
}

// NewDNSOracle replicates a DNS stack populated with n names.
func NewDNSOracle(n int) *Oracle {
	zone := dns.NewZone()
	zone.PopulateSequential(n)
	return &Oracle{h: dns.NewHandler(zone), memo: make(map[uint16][]byte)}
}

// Reply returns the host software's answer to req (nil for no reply).
func (o *Oracle) Reply(req []byte) []byte {
	out, ok := o.h.HandleDatagram(req, &o.scratch)
	if !ok {
		return nil
	}
	return append([]byte(nil), out...)
}

// ReplyID memoizes Reply by request ID, so idempotent requests replayed
// by duplication faults are checked against one oracle evaluation.
func (o *Oracle) ReplyID(id uint16, req []byte) []byte {
	if out, ok := o.memo[id]; ok {
		return out
	}
	out := o.Reply(req)
	o.memo[id] = out
	return out
}

// --- Paxos ----------------------------------------------------------------

// voteKey identifies one acceptor's vote slot.
type voteKey struct {
	Node     uint16
	Instance uint64
}

// Vote is the (ballot, value) an acceptor committed to for an instance.
type Vote struct {
	VBallot uint32
	Value   []byte
}

// VoteAuditor observes every Phase2B any acceptor puts on the wire — to
// learners and proposer, from the host role and the offload tier alike —
// and holds the stream to the protocol's own rule: an acceptor never
// casts a new vote below one it already cast, and one (instance, ballot)
// carries one value, whichever acceptor votes it. A promised overwrite
// at a higher ballot is legal, and so is sending an earlier vote again (a
// duplicate, as the network makes them); a tier or host that forgot a
// vote across a handoff and votes anew is not.
type VoteAuditor struct {
	votes     map[voteKey]Vote     // the highest vote each acceptor cast
	cast      map[[3]uint64]bool   // (acceptor, instance, ballot) voted
	ballots   map[[2]uint64][]byte // (instance, ballot) -> the value it carries
	Conflicts []string
}

// NewVoteAuditor returns an empty auditor.
func NewVoteAuditor() *VoteAuditor {
	return &VoteAuditor{votes: make(map[voteKey]Vote), cast: make(map[[3]uint64]bool),
		ballots: make(map[[2]uint64][]byte)}
}

// observe folds in one datagram as it is sent.
func (a *VoteAuditor) observe(payload []byte) {
	var m paxos.MsgView
	if paxos.DecodeView(payload, &m) != nil || m.Type != paxos.MsgPhase2B {
		return
	}
	b := [2]uint64{m.Instance, uint64(m.VBallot)}
	if carried, ok := a.ballots[b]; !ok {
		a.ballots[b] = append([]byte(nil), m.Value...)
	} else if !bytes.Equal(carried, m.Value) {
		a.Conflicts = append(a.Conflicts, fmt.Sprintf(
			"instance %d ballot %d carries %q and, from acceptor %d, %q",
			m.Instance, m.VBallot, carried, m.NodeID, m.Value))
		return
	}
	c := [3]uint64{uint64(m.NodeID), m.Instance, uint64(m.VBallot)}
	if a.cast[c] {
		return // the same vote again
	}
	a.cast[c] = true
	k := voteKey{m.NodeID, m.Instance}
	if prev, seen := a.votes[k]; seen && m.VBallot < prev.VBallot {
		a.Conflicts = append(a.Conflicts, fmt.Sprintf(
			"acceptor %d instance %d voted (b%d %q) then anew (b%d %q)",
			k.Node, k.Instance, prev.VBallot, prev.Value, m.VBallot, m.Value))
		return
	}
	a.votes[k] = Vote{VBallot: m.VBallot, Value: a.ballots[b]}
}

// PaxosClient proposes values and records the decisions it is told, by
// sequence and by instance, flagging any it is told twice differently.
type PaxosClient struct {
	ID         uint16
	addr       simnet.Addr
	leader     simnet.Addr
	net        *simnet.Network
	Decided    map[uint64][]byte
	ByInstance map[uint64][]byte
	Conflicts  []string
}

// Addr implements simnet.Node.
func (c *PaxosClient) Addr() simnet.Addr { return c.addr }

// Receive implements simnet.Node, folding in decisions.
func (c *PaxosClient) Receive(pkt *simnet.Packet) {
	var v paxos.MsgView
	if paxos.DecodeView(pkt.Payload, &v) != nil || v.Type != paxos.MsgDecision {
		return
	}
	value := append([]byte(nil), v.Value...)
	c.record("seq", c.Decided, v.Seq, value)
	c.record("instance", c.ByInstance, v.Instance, value)
}

func (c *PaxosClient) record(what string, told map[uint64][]byte, key uint64, value []byte) {
	if prev, ok := told[key]; !ok {
		told[key] = value
	} else if !bytes.Equal(prev, value) {
		c.Conflicts = append(c.Conflicts, fmt.Sprintf(
			"client %d %s %d decided %q then %q", c.ID, what, key, prev, value))
	}
}

// Propose submits value under seq to the leader.
func (c *PaxosClient) Propose(seq uint64, value []byte) {
	c.net.Send(&simnet.Packet{Src: c.addr, Dst: c.leader, Payload: paxos.Encode(paxos.Msg{
		Type:       paxos.MsgClientRequest,
		ClientID:   c.ID,
		Seq:        seq,
		ClientAddr: c.addr,
		Value:      value,
	})})
}

// PaxosStack is simhost's consensus deployment run bare — the leader,
// three acceptors and two learners that each hear every acceptor — with
// acceptor 0 carrying the P4xos offload tier and its orchestrator, and
// every vote on the wire audited.
type PaxosStack struct {
	*simhost.Paxos
	Sim     *simnet.Simulator
	Tier    *CrashableTier
	Orch    *daemon.Orchestrator
	Audit   *VoteAuditor
	Clients []*PaxosClient
	stops   []func() // the periodic drivers: orchestrator ticks, gap scans
	trace   *traceHash
}

// nodes returns every node of the deployment: both leaders, the
// acceptors and the learners.
func (s *PaxosStack) nodes() []*simhost.Node {
	ns := []*simhost.Node{s.SWLeader.Node, s.HWLeader.Node}
	for _, a := range s.Acceptors {
		ns = append(ns, a.Node)
	}
	for _, l := range s.Learners {
		ns = append(ns, l.Node)
	}
	return ns
}

// NewPaxosStack wires the deployment up with nclients proposers.
// Acceptor 0 serves batched over cfg.BatchWindow; the other two are
// single-datagram hosts, so both dispatch substrates are always in play.
func NewPaxosStack(seed int64, cfg StackConfig, nclients int) *PaxosStack {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.Link)
	net.SetFaultPlan(cfg.Faults)
	s := &PaxosStack{Sim: sim, Audit: NewVoteAuditor()}
	s.trace = attachTrace(net, cfg.Trace, s.Audit.observe)
	s.Paxos = simhost.NewPaxos(net, simhost.PaxosConfig{
		Learners: 2, Bare: true, Window: cfg.BatchWindow, GapTimeout: 500 * time.Microsecond,
	})
	// Acceptor 0 is the managed service: offload tier + orchestrator.
	s.Tier = NewCrashableTier(nictier.NewPaxosAcceptor(s.Acceptors[0].LiveAcceptor))
	var stopTick func()
	s.Orch, stopTick = simhost.Orchestrate(sim, tickEvery, daemon.ServiceConfig{
		Service: nictier.NewService("paxos", s.Acceptors[0].Node, s.Tier),
	}, nil)
	s.stops = []func(){stopTick, s.Paxos.Stop}

	for c := 0; c < nclients; c++ {
		cl := &PaxosClient{
			ID:         uint16(c + 1),
			addr:       simnet.Addr(fmt.Sprintf("client-%d", c)),
			leader:     s.SWLeader.Addr(),
			net:        net,
			Decided:    make(map[uint64][]byte),
			ByInstance: make(map[uint64][]byte),
		}
		net.Attach(cl)
		s.Clients = append(s.Clients, cl)
	}
	return s
}
