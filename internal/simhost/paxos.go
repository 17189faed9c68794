package simhost

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"incod/internal/core"
	"incod/internal/dataplane"
	"incod/internal/paxos"
	"incod/internal/power"
	"incod/internal/protocol"
	"incod/internal/simnet"
	"incod/internal/trafficgen"
)

// Libpaxos returns the §4.3 software model of a consensus role ("leader",
// "acceptor" or "learner"): single-core libpaxos on a server with a plain
// NIC, end-to-end consensus around 300-450µs (the Figure 7 scale). The
// leader's curve was calibrated on client requests: the acceptors' 1B/2B
// feedback, three times that rate, is neither counted nor shed.
func Libpaxos(role string) *Model {
	m := &Model{Curve: power.LibpaxosRole(role)}
	base := 120 * time.Microsecond
	if role == "leader" {
		base, m.Metered = 130*time.Microsecond, isClientRequest
	}
	m.HostTime = func(rng *rand.Rand, _ float64) time.Duration {
		return base + expJitter(rng, 20*time.Microsecond)
	}
	return m
}

// P4xos returns the hardware model of any consensus role: the P4 pipeline
// on the card (~1.5µs, 10M msgs/s) in an otherwise idle server. It has no
// HostTime — the role runs on the card, as the node's fast path.
func P4xos() *Model {
	return &Model{
		Curve:  power.LibpaxosLeader,
		Design: protocol.Paxos.Design,
		CardTime: func(rng *rand.Rand, _ []byte, _ float64) time.Duration {
			return 1500*time.Nanosecond + expJitter(rng, 100*time.Nanosecond)
		},
	}
}

func isClientRequest(req []byte) bool {
	return len(req) > 0 && paxos.MsgType(req[0]) == paxos.MsgClientRequest
}

// onCard serves a role from the card: installed as its node's fast path,
// it consumes every datagram, so the node charges CardTime and lights its
// board as it does for a KVS hit.
type onCard struct{ h dataplane.Handler }

func (c onCard) TryHandleDatagram(in []byte, _ netip.AddrPort, scratch *[]byte) ([]byte, bool, bool) {
	out, ok := c.h.HandleDatagram(in, scratch)
	return out, true, ok
}

// roleNode attaches the role mk builds around its node's Sender, at addr
// under m. The role needs its sender before the node exists, so it gets
// one that reaches the node's through a variable set last.
func roleNode[R dataplane.Handler](net *simnet.Network, addr simnet.Addr, window time.Duration, m *Model, mk func(paxos.Sender) R) (R, *Node) {
	var send paxos.Sender
	role := mk(func(to string, msg paxos.Msg) { send(to, msg) })
	n := NewNode(net, addr, role, window, m)
	send = n.Sender()
	if m != nil && m.HostTime == nil {
		n.SetFastPath(onCard{role})
	}
	return role, n
}

// PaxosLeader, PaxosAcceptor and PaxosLearner are a role and the node
// that serves it.
type (
	PaxosLeader struct {
		*paxos.LiveLeader
		*Node
	}
	PaxosAcceptor struct {
		*paxos.LiveAcceptor
		*Node
	}
	PaxosLearner struct {
		*paxos.LiveLearner
		*Node
	}
)

// Paxos is a full consensus deployment on a simulated network: the roles
// of internal/paxos, each on its own Node — a software leader with a
// hardware standby, acceptors, learners — and simnet load clients. As a
// core.Service its transition task is the §9.2 leader shift.
type Paxos struct {
	Net       *simnet.Network
	Acceptors []*PaxosAcceptor
	// Learner is the first learner; Learners holds all of them.
	Learner  *PaxosLearner
	Learners []*PaxosLearner
	Clients  []*Client

	// SWLeader and HWLeader are the two placements of the leader role.
	SWLeader *PaxosLeader
	HWLeader *PaxosLeader
	// Stop ends the learners' periodic gap scans, so a drained simulation
	// comes to rest.
	Stop func()

	bare     bool
	learners []string
	current  *PaxosLeader
}

var _ core.Service = (*Paxos)(nil)
var _ core.TaskNamer = (*Paxos)(nil)

// acceptors is how many acceptors a deployment runs; quorum is a
// majority.
const acceptors = 3

// PaxosConfig sizes a deployment.
type PaxosConfig struct {
	// Learners observe decisions, each hearing every acceptor. Default 1.
	Learners int
	// Clients is how many proposers (trafficgen.Proposer load clients,
	// with the §9.2 100 ms retry timeout) to attach.
	Clients int
	// Bare leaves every node without a cost model — the chaos harness's
	// deployment. Otherwise the roles run under Libpaxos, the standby
	// leader under P4xos.
	Bare bool
	// Window batches deliveries at acceptor 0 (0 = one datagram at a
	// time, as everywhere else).
	Window time.Duration
	// GapTimeout is the learners' §9.2 timeout: how often they scan for
	// holes, and how long one lingers before they ask again. Default 50ms.
	GapTimeout time.Duration
}

// NewPaxos wires up leaders (software active, hardware standby),
// acceptors, learners and clients.
func NewPaxos(net *simnet.Network, cfg PaxosConfig) *Paxos {
	if cfg.Learners <= 0 {
		cfg.Learners = 1
	}
	if cfg.GapTimeout <= 0 {
		cfg.GapTimeout = 50 * time.Millisecond
	}
	d := &Paxos{Net: net, bare: cfg.Bare}
	acceptorAddrs := make([]string, acceptors)
	for i := range acceptorAddrs {
		acceptorAddrs[i] = fmt.Sprintf("acceptor-%d", i)
	}
	d.learners = make([]string, cfg.Learners)
	for i := range d.learners {
		d.learners[i] = "learner"
		if i > 0 {
			d.learners[i] = fmt.Sprintf("learner-%d", i)
		}
	}

	leader := func(addr simnet.Addr, m *Model) *PaxosLeader {
		role, n := roleNode(net, addr, 0, d.model(m), func(send paxos.Sender) *paxos.LiveLeader {
			return paxos.NewLiveLeader(1, acceptorAddrs, send)
		})
		return &PaxosLeader{role, n}
	}
	d.SWLeader = leader("leader-sw", Libpaxos("leader"))
	hw := P4xos()
	hw.Metered = isClientRequest
	d.HWLeader = leader("leader-hw", hw)
	d.HWLeader.SetActive(false)
	d.current = d.SWLeader

	for i, addr := range acceptorAddrs {
		window := time.Duration(0)
		if i == 0 {
			window = cfg.Window
		}
		d.Acceptors = append(d.Acceptors, d.acceptor(simnet.Addr(addr), uint16(i), window, Libpaxos("acceptor")))
	}
	for _, addr := range d.learners {
		role, n := roleNode(net, simnet.Addr(addr), 0, d.model(Libpaxos("learner")), func(send paxos.Sender) *paxos.LiveLearner {
			return paxos.NewLiveLearner(acceptors/2+1, string(d.current.Addr()), send)
		})
		role.GapTimeout = cfg.GapTimeout
		d.Learners = append(d.Learners, &PaxosLearner{role, n})
	}
	d.Learner = d.Learners[0]
	// §9.2 gap recovery on the virtual clock.
	d.Stop = net.Sim().Every(cfg.GapTimeout, func() {
		for _, l := range d.Learners {
			l.ScanGaps(wallTime(net.Sim()))
		}
	})

	for i := 0; i < cfg.Clients; i++ {
		addr := simnet.Addr(fmt.Sprintf("pxclient-%d", i))
		c := NewClient(net, addr, d.current.Addr(), &trafficgen.Proposer{ID: uint16(i), Addr: string(addr)})
		c.RetryTimeout = 100 * time.Millisecond
		d.Clients = append(d.Clients, c)
	}
	return d
}

// model is m, or none in a bare deployment.
func (d *Paxos) model(m *Model) *Model {
	if d.bare {
		return nil
	}
	return m
}

func (d *Paxos) acceptor(addr simnet.Addr, id uint16, window time.Duration, m *Model) *PaxosAcceptor {
	role, n := roleNode(d.Net, addr, window, d.model(m), func(send paxos.Sender) *paxos.LiveAcceptor {
		return paxos.NewLiveAcceptor(id, d.learners, send)
	})
	return &PaxosAcceptor{role, n}
}

// CurrentLeader returns the active leader.
func (d *Paxos) CurrentLeader() *PaxosLeader { return d.current }

// Requests is the monotonic count of client requests either leader has
// seen — the orchestrator's rate input for the leader shift.
func (d *Paxos) Requests() uint64 { return d.SWLeader.Observed() + d.HWLeader.Observed() }

// ShiftLeader moves the leader role to target (SWLeader or HWLeader), the
// §9.2 centralized-controller shift: the outgoing leader is paused, the
// incoming one restarts at sequence 1 with a ballot above any the
// outgoing one used, and the "forwarding rules" (client targets, learner
// leader pointers) are rewritten. Convergence then relies on acceptor
// piggybacks, client retries and learner gap recovery.
func (d *Paxos) ShiftLeader(target *PaxosLeader) {
	if target == d.current {
		return
	}
	d.current.SetActive(false)
	target.Restart(d.current.HighestBallot() + 1)
	target.SetActive(true)
	for _, l := range d.Learners {
		l.SetLeader(string(target.Addr()))
	}
	for _, c := range d.Clients {
		c.Retarget(target.Addr())
	}
	d.current = target
}

// PowerWatts implements telemetry.PowerSource: the power of the current
// leader's node — what Figure 3(b)'s leader lines report; a hardware
// leader is its card in an idle host.
func (d *Paxos) PowerWatts(now simnet.Time) float64 { return d.current.PowerWatts(now) }

// Name implements core.Service.
func (d *Paxos) Name() string { return "paxos" }

// Placement implements core.Service: where the leader runs.
func (d *Paxos) Placement() core.Placement {
	if d.current == d.HWLeader {
		return core.Network
	}
	return core.Host
}

// Shift implements core.Service: the transition task is the §9.2 leader
// election.
func (d *Paxos) Shift(to core.Placement) error {
	if to == core.Network {
		d.ShiftLeader(d.HWLeader)
	} else {
		d.ShiftLeader(d.SWLeader)
	}
	return nil
}

// TransitionTask implements core.TaskNamer. Figure 7: throughput stalls
// for roughly one client retry timeout while clients re-point at the new
// leader.
func (d *Paxos) TransitionTask(core.Placement) string {
	return "leader election; clients stall up to one retry timeout"
}
