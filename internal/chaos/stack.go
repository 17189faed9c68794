package chaos

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"incod/internal/core"
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
	// TickEvery drives the orchestrator on the virtual clock
	// (default 500µs).
	TickEvery time.Duration
	// Policy decides placement; nil leaves the orchestrator pin-driven
	// (the daemon default threshold policy holds at zero observed load).
	Policy core.Policy
	// Trace, when set, receives one line per packet event — the replay
	// artifact for a violating seed.
	Trace io.Writer
}

// attachTrace installs a line-per-event tracer when w is set.
func attachTrace(net *simnet.Network, w io.Writer) {
	if w == nil {
		return
	}
	net.SetTracer(func(kind string, at simnet.Time, src, dst simnet.Addr, payload []byte) {
		fmt.Fprintf(w, "%12v %-14s %s -> %s  %d bytes\n",
			time.Duration(at), kind, src, dst, len(payload))
	})
}

func (c StackConfig) tickEvery() time.Duration {
	if c.TickEvery > 0 {
		return c.TickEvery
	}
	return 500 * time.Microsecond
}

// driveOrchestrator ticks orch on the virtual clock: the orchestrator's
// wall-clock `now` is synthesized from the simulator's time, so decision
// windows are as deterministic as everything else.
func driveOrchestrator(sim *simnet.Simulator, orch *daemon.Orchestrator, every time.Duration) (cancel func()) {
	return sim.Every(every, func() {
		orch.Tick(time.Unix(0, 0).Add(time.Duration(sim.Now())))
	})
}

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

// chaosKey and chaosValue are the deterministic preloaded KVS keyspace.
func chaosKey(i int) string   { return fmt.Sprintf("key-%d", i) }
func chaosValue(i int) string { return fmt.Sprintf("value-%d-%08x", i, uint32(i)*2654435761) }

// preloadKVS installs n immutable entries into store.
func preloadKVS(store *kvs.ShardedStore, n int) {
	for i := 0; i < n; i++ {
		store.Set(chaosKey(i), kvs.Entry{Flags: uint32(i), Value: []byte(chaosValue(i))})
	}
}

// --- KVS ------------------------------------------------------------------

// KVSStack is a live kvs.Handler with its LaKe offload tier behind a
// CrashableTier, served by a simhost.Node and placed by a real
// orchestrator, all on one simulated network.
type KVSStack struct {
	Sim      *simnet.Simulator
	Net      *simnet.Network
	Store    *kvs.ShardedStore
	Handler  *kvs.Handler
	Tier     *CrashableTier
	Node     *simhost.Node
	Orch     *daemon.Orchestrator
	StopTick func()
}

// NewKVSStack wires the stack up with n preloaded entries. Placement
// starts on the host.
func NewKVSStack(seed int64, cfg StackConfig, n int) *KVSStack {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.Link)
	net.SetFaultPlan(cfg.Faults)
	attachTrace(net, cfg.Trace)
	store := kvs.NewShardedStore(1, 1<<15)
	preloadKVS(store, n)
	h := kvs.NewHandler(store)
	// The board-default tier: its table holds memory only for what it
	// caches, so a stack build and a Park reset cost microseconds, and
	// no property relies on the tier evicting.
	tier := NewCrashableTier(nictier.NewKVS(h))
	node := simhost.NewNode(net, ServerAddr, h, cfg.BatchWindow, nil)
	orch := daemon.NewOrchestrator(0)
	if _, err := orch.Register("kvs", daemon.ServiceConfig{
		Service: nictier.NewService("kvs", node, tier),
		Policy:  cfg.Policy,
	}); err != nil {
		panic(err) // static wiring; cannot fail
	}
	return &KVSStack{
		Sim: sim, Net: net, Store: store, Handler: h, Tier: tier,
		Node: node, Orch: orch,
		StopTick: driveOrchestrator(sim, orch, cfg.tickEvery()),
	}
}

// --- DNS ------------------------------------------------------------------

// DNSStack is the Emu-DNS equivalent of KVSStack: a populated zone, its
// host handler and offload tier on the simulated network.
type DNSStack struct {
	Sim      *simnet.Simulator
	Net      *simnet.Network
	Zone     *dns.Zone
	Handler  *dns.Handler
	Tier     *CrashableTier
	Node     *simhost.Node
	Orch     *daemon.Orchestrator
	StopTick func()
}

// NewDNSStack wires the stack up with n sequentially-populated names.
func NewDNSStack(seed int64, cfg StackConfig, n int) *DNSStack {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.Link)
	net.SetFaultPlan(cfg.Faults)
	attachTrace(net, cfg.Trace)
	zone := dns.NewZone()
	zone.PopulateSequential(n)
	h := dns.NewHandler(zone)
	tier := NewCrashableTier(nictier.NewDNS(zone))
	node := simhost.NewNode(net, ServerAddr, h, cfg.BatchWindow, nil)
	orch := daemon.NewOrchestrator(0)
	if _, err := orch.Register("dns", daemon.ServiceConfig{
		Service: nictier.NewService("dns", node, tier),
		Policy:  cfg.Policy,
	}); err != nil {
		panic(err)
	}
	return &DNSStack{
		Sim: sim, Net: net, Zone: zone, Handler: h, Tier: tier,
		Node: node, Orch: orch,
		StopTick: driveOrchestrator(sim, orch, cfg.tickEvery()),
	}
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
	store := kvs.NewShardedStore(1, 1<<15)
	preloadKVS(store, n)
	return &Oracle{h: kvs.NewHandler(store), memo: make(map[uint16][]byte)}
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

// PaxosAddrs names the fixed consensus topology.
var (
	LeaderAddr  = simnet.Addr("leader")
	LearnerAddr = simnet.Addr("learner")
)

// AcceptorAddr returns acceptor i's address ("server" for acceptor 0,
// which carries the offload tier and the orchestrator).
func AcceptorAddr(i int) simnet.Addr {
	if i == 0 {
		return ServerAddr
	}
	return simnet.Addr(fmt.Sprintf("acceptor-%d", i))
}

// netSender adapts the network to paxos.Sender for a node at from. Each
// message is freshly encoded, so deferred delivery never aliases a
// reused buffer.
func netSender(net *simnet.Network, from simnet.Addr) paxos.Sender {
	return func(to string, m paxos.Msg) {
		net.Send(&simnet.Packet{Src: from, Dst: simnet.Addr(to), Payload: paxos.Encode(m)})
	}
}

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

// VoteAuditor observes every Phase2B fanned out to the learners — the
// host role and the offload tier share the acceptor's Sender, so
// wrapping it sees votes from both substrates. A second 2B for the same
// (acceptor, instance) with a different ballot or value is a doubled
// vote: the safety violation a botched state handoff would produce.
type VoteAuditor struct {
	votes     map[voteKey]Vote
	Conflicts []string
}

// NewVoteAuditor returns an empty auditor.
func NewVoteAuditor() *VoteAuditor {
	return &VoteAuditor{votes: make(map[voteKey]Vote)}
}

// Wrap interposes the auditor on send.
func (a *VoteAuditor) Wrap(send paxos.Sender) paxos.Sender {
	return func(to string, m paxos.Msg) {
		if m.Type == paxos.MsgPhase2B {
			a.record(m)
		}
		send(to, m)
	}
}

func (a *VoteAuditor) record(m paxos.Msg) {
	k := voteKey{m.NodeID, m.Instance}
	prev, seen := a.votes[k]
	if !seen {
		a.votes[k] = Vote{VBallot: m.VBallot, Value: append([]byte(nil), m.Value...)}
		return
	}
	if prev.VBallot != m.VBallot || !bytes.Equal(prev.Value, m.Value) {
		a.Conflicts = append(a.Conflicts, fmt.Sprintf(
			"acceptor %d instance %d voted (b%d %q) then (b%d %q)",
			k.Node, k.Instance, prev.VBallot, prev.Value, m.VBallot, m.Value))
	}
}

// Votes returns the recorded votes of one acceptor, keyed by instance.
func (a *VoteAuditor) Votes(node uint16) map[uint64]Vote {
	out := make(map[uint64]Vote)
	for k, v := range a.votes {
		if k.Node == node {
			out[k.Instance] = v
		}
	}
	return out
}

// PaxosClient proposes values and records learned decisions, flagging
// any sequence decided twice with different values.
type PaxosClient struct {
	ID        uint16
	addr      simnet.Addr
	net       *simnet.Network
	Decided   map[uint64][]byte
	Conflicts []string
}

// Addr implements simnet.Node.
func (c *PaxosClient) Addr() simnet.Addr { return c.addr }

// Receive implements simnet.Node, folding in decisions.
func (c *PaxosClient) Receive(pkt *simnet.Packet) {
	var v paxos.MsgView
	if paxos.DecodeView(pkt.Payload, &v) != nil || v.Type != paxos.MsgDecision {
		return
	}
	if prev, ok := c.Decided[v.Seq]; ok {
		if !bytes.Equal(prev, v.Value) {
			c.Conflicts = append(c.Conflicts, fmt.Sprintf(
				"client %d seq %d decided %q then %q", c.ID, v.Seq, prev, v.Value))
		}
		return
	}
	c.Decided[v.Seq] = append([]byte(nil), v.Value...)
}

// Propose submits value under seq to the leader.
func (c *PaxosClient) Propose(seq uint64, value []byte) {
	c.net.Send(&simnet.Packet{Src: c.addr, Dst: LeaderAddr, Payload: paxos.Encode(paxos.Msg{
		Type:       paxos.MsgClientRequest,
		ClientID:   c.ID,
		Seq:        seq,
		ClientAddr: c.addr,
		Value:      value,
	})})
}

// PaxosStack is a full consensus deployment on the simulated network:
// one leader, three acceptors (acceptor 0 carrying the P4xos offload
// tier and its orchestrator), one learner, and auditing of every vote.
type PaxosStack struct {
	Sim       *simnet.Simulator
	Net       *simnet.Network
	Leader    *paxos.LiveLeader
	Learner   *paxos.LiveLearner
	Acceptors [3]*paxos.LiveAcceptor
	Tier      *CrashableTier
	Node      *simhost.Node // acceptor 0's serving node
	Orch      *daemon.Orchestrator
	Audit     *VoteAuditor
	Clients   []*PaxosClient
	stops     []func()
}

// NewPaxosStack wires the deployment up with nclients proposers.
// Acceptor 0 serves batched over cfg.BatchWindow; the other two are
// single-datagram hosts, so both dispatch substrates are always in play.
func NewPaxosStack(seed int64, cfg StackConfig, nclients int) *PaxosStack {
	sim := simnet.New(seed)
	net := simnet.NewNetwork(sim, cfg.Link)
	net.SetFaultPlan(cfg.Faults)
	attachTrace(net, cfg.Trace)
	s := &PaxosStack{Sim: sim, Net: net, Audit: NewVoteAuditor()}

	acceptorNames := make([]string, 3)
	for i := range acceptorNames {
		acceptorNames[i] = string(AcceptorAddr(i))
	}
	s.Leader = paxos.NewLiveLeader(1, acceptorNames, netSender(net, LeaderAddr))
	simhost.NewNode(net, LeaderAddr, s.Leader, 0, nil)

	s.Learner = paxos.NewLiveLearner(2, string(LeaderAddr), netSender(net, LearnerAddr))
	simhost.NewNode(net, LearnerAddr, s.Learner, 0, nil)

	for i := 0; i < 3; i++ {
		addr := AcceptorAddr(i)
		s.Acceptors[i] = paxos.NewLiveAcceptor(uint16(i), []string{string(LearnerAddr)},
			s.Audit.Wrap(netSender(net, addr)))
	}
	// Acceptor 0 is the managed service: offload tier + orchestrator.
	s.Tier = NewCrashableTier(nictier.NewPaxosAcceptor(s.Acceptors[0]))
	s.Node = simhost.NewNode(net, ServerAddr, s.Acceptors[0], cfg.BatchWindow, nil)
	for i := 1; i < 3; i++ {
		simhost.NewNode(net, AcceptorAddr(i), s.Acceptors[i], 0, nil)
	}

	s.Orch = daemon.NewOrchestrator(0)
	if _, err := s.Orch.Register("paxos", daemon.ServiceConfig{
		Service: nictier.NewService("paxos", s.Node, s.Tier),
		Policy:  cfg.Policy,
	}); err != nil {
		panic(err)
	}
	s.stops = append(s.stops, driveOrchestrator(sim, s.Orch, cfg.tickEvery()))
	// §9.2 gap recovery on the virtual clock.
	s.stops = append(s.stops, sim.Every(500*time.Microsecond, s.Learner.ScanGaps))

	for c := 0; c < nclients; c++ {
		cl := &PaxosClient{
			ID:      uint16(c + 1),
			addr:    simnet.Addr(fmt.Sprintf("client-%d", c)),
			net:     net,
			Decided: make(map[uint64][]byte),
		}
		net.Attach(cl)
		s.Clients = append(s.Clients, cl)
	}
	return s
}

// RunAndDrain advances the stack d of virtual time, then stops the
// periodic drivers and drains in-flight packets.
func (s *PaxosStack) RunAndDrain(d time.Duration) {
	runAndDrain(s.Sim, d, s.stops...)
	s.stops = nil
}
